// Quickstart: the complete HPNN workflow in one file.
//
// A model owner trains a CNN locked with a secret 256-bit key, an
// authorized user runs it with the key, and an attacker runs the same
// published weights without the key — and collapses to chance.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"hpnn"
)

func main() {
	// A Fashion-MNIST-like synthetic benchmark (offline stand-in).
	ds, err := hpnn.GenerateDataset(hpnn.DatasetConfig{
		Name: "fashion", TrainN: 800, TestN: 300, H: 16, W: 16, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The owner's secrets: the HPNN key and the private hardware schedule.
	key := hpnn.GenerateKey(42)
	sched := hpnn.NewSchedule(77)

	// CNN1 from Table I, locked on every ReLU neuron.
	model, err := hpnn.NewModel(hpnn.Config{
		Arch: hpnn.CNN1, InC: ds.C, InH: ds.H, InW: ds.W, Seed: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CNN1: %d locked neurons, %d trainable parameters\n",
		model.LockedNeurons(), model.Net.ParamCount())

	// Key-dependent backpropagation (Eq. 1-4 of the paper).
	res := hpnn.TrainLocked(model, key, sched,
		ds.TrainX, ds.TrainY, ds.TestX, ds.TestY,
		hpnn.TrainConfig{Epochs: 8, BatchSize: 32, LR: 0.02, Momentum: 0.9, Seed: 3,
			Hooks: hpnn.TrainHooks{Logf: log.Printf}})

	ownerAcc := res.FinalTestAcc()
	fmt.Printf("\nauthorized user (key on trusted hardware): %.2f%%\n", 100*ownerAcc)

	// The attacker loads the same weights into the baseline architecture.
	model.DisengageLocks()
	stolen := model.Accuracy(ds.TestX, ds.TestY, 64)
	model.EngageLocks()
	fmt.Printf("attacker (stolen weights, no key):         %.2f%%\n", 100*stolen)
	fmt.Printf("accuracy drop:                             %.2f points\n", 100*(ownerAcc-stolen))
}
