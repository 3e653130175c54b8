// Command serve demonstrates the batched inference service end to end:
// it embeds an InferenceServer for a freshly trained locked model, fires
// concurrent client traffic at it (plus one deliberately mis-shaped
// request), and prints the drain report — throughput, batching factor and
// latency percentiles — exactly what `hpnn-serve` prints on Ctrl-C.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"

	"hpnn"
)

func main() {
	log.SetFlags(0)
	ds, err := hpnn.GenerateDataset(hpnn.DatasetConfig{
		Name: "fashion", TrainN: 300, TestN: 64, H: 16, W: 16, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	m, err := hpnn.NewModel(hpnn.Config{Arch: hpnn.CNN1, InC: 1, InH: 16, InW: 16, Seed: 8})
	if err != nil {
		log.Fatal(err)
	}
	key := hpnn.GenerateKey(9)
	sched := hpnn.NewSchedule(77)
	hpnn.TrainLocked(m, key, sched, ds.TrainX, ds.TrainY, nil, nil, hpnn.TrainConfig{
		Epochs: 4, BatchSize: 32, LR: 0.05, Momentum: 0.9, Seed: 10,
	})

	srv, err := hpnn.NewInferenceServer(m, hpnn.DefaultAcceleratorConfig(),
		hpnn.NewTrustedDevice("example", key), sched, hpnn.ServeConfig{})
	if err != nil {
		log.Fatal(err)
	}

	// 8 concurrent clients, 8 samples each, through the request queue.
	feat := 16 * 16
	var wg sync.WaitGroup
	correct := make([]int, 8)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		//hpnn:allow(gofunc) example client fan-out, joined via the WaitGroup below
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				idx := c*8 + i
				x := hpnn.Tensor{Shape: []int{1, 16, 16}, Data: ds.TestX.Data[idx*feat : (idx+1)*feat]}
				class, err := srv.Predict(context.Background(), &x)
				if err != nil {
					log.Fatal(err)
				}
				if class == ds.TestY[idx] {
					correct[c]++
				}
			}
		}(c)
	}
	wg.Wait()
	total := 0
	for _, c := range correct {
		total += c
	}

	// Shape validation happens before the queue.
	if _, err := srv.Predict(context.Background(), hpnn.NewTensor(2, 2)); err == nil {
		log.Fatal("mis-shaped request was accepted")
	} else {
		fmt.Printf("mis-shaped request rejected: %v\n", err)
	}

	st := srv.Close()
	hw := srv.HardwareStats()
	fmt.Printf("served accuracy: %d/64 correct on the trusted device\n", total)
	fmt.Println(st.String())
	fmt.Printf("hardware: %d MACs, %d locked outputs across shards (%d workspace bytes)\n",
		hw.MACs, hw.LockedOutputs, srv.WorkspaceBytes())
}
