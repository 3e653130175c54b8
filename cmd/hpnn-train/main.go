// hpnn-train is the model owner's tool: it trains a key-locked DNN on one
// of the synthetic benchmarks with the key-dependent backpropagation
// algorithm and writes the obfuscated model (weights only, no key
// material) plus the secret key as a hex file.
//
// Example:
//
//	hpnn-train -dataset fashion -out model.hpnn -key-out key.hex
//	hpnn-train -dataset cifar -width 0.25 -epochs 12 -out cifar.hpnn
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"hpnn"
	"hpnn/internal/core"
)

func main() {
	log.SetFlags(0)
	var (
		dsName   = flag.String("dataset", "fashion", "benchmark: fashion, cifar or svhn")
		archName = flag.String("arch", "", "architecture: cnn1, cnn2, cnn3, resnet18, mlp (default: the Table I pairing)")
		trainN   = flag.Int("train-n", 800, "training samples")
		testN    = flag.Int("test-n", 300, "test samples")
		imgSize  = flag.Int("img", 16, "image size (0 = dataset native)")
		width    = flag.Float64("width", 0, "architecture width scale (0 = sensible default for the size)")
		epochs   = flag.Int("epochs", 8, "training epochs")
		batch    = flag.Int("batch", 32, "batch size")
		lr       = flag.Float64("lr", 0.02, "learning rate")
		momentum = flag.Float64("momentum", 0.9, "SGD momentum")
		seed     = flag.Uint64("seed", 1, "master seed (data, init, key, schedule)")
		keyHex   = flag.String("key", "", "HPNN key as 64 hex chars (default: generate from seed)")
		schedSd  = flag.Uint64("sched-seed", 77, "private hardware-schedule seed")
		out      = flag.String("out", "model.hpnn", "output model file")
		keyOut   = flag.String("key-out", "", "write the generated key (hex) to this file")
		optName  = flag.String("optimizer", "sgd", "optimizer: sgd or adam")
		schedNm  = flag.String("schedule", "step", "LR schedule: step, cosine or constant")
		warmup   = flag.Int("warmup", 0, "linear LR warmup epochs before the schedule")
		ckptPath = flag.String("checkpoint", "", "write a resumable training checkpoint here after every epoch (contains key material — keep private)")
		resume   = flag.Bool("resume", false, "continue from -checkpoint if it exists; the resumed run reproduces the uninterrupted one bitwise")
		schemeNm = flag.String("scheme", "", "lock scheme (empty = hpnn-xor; \"list\" prints the registry)")
		replicas = flag.Int("replicas", 0, "data-parallel model replicas (0 = sequential loop; the run is bitwise identical for any replica count)")
		shards   = flag.Int("grad-shards", 0, "gradient micro-shards per step (power of two ≥ -replicas; 0 = 8 when -replicas is set); fixes the numerics, so resumes must keep it")
	)
	flag.Parse()

	if *schemeNm == "list" {
		fmt.Print(hpnn.DescribeLockSchemes())
		return
	}
	scheme, err := hpnn.LockSchemeByName(*schemeNm)
	if err != nil {
		log.Fatal(err)
	}

	ds, err := hpnn.GenerateDataset(hpnn.DatasetConfig{
		Name: *dsName, TrainN: *trainN, TestN: *testN, H: *imgSize, W: *imgSize, Seed: *seed,
	})
	if err != nil {
		log.Fatal(err)
	}

	arch := core.Arch(*archName)
	if *archName == "" {
		switch *dsName {
		case "fashion":
			arch = hpnn.CNN1
		case "cifar":
			arch = hpnn.CNN2
		case "svhn":
			arch = hpnn.CNN3
		}
	}
	ws := *width
	if ws == 0 {
		// Scale the bigger nets down at reduced resolution.
		switch arch {
		case hpnn.CNN2, hpnn.ResNet18:
			ws = 0.125
		case hpnn.CNN3:
			ws = 0.25
		default:
			ws = 1
		}
	}

	m, err := hpnn.NewModel(hpnn.Config{
		Arch: arch, InC: ds.C, InH: ds.H, InW: ds.W,
		Classes: ds.Classes, WidthScale: ws, Seed: *seed + 1,
	})
	if err != nil {
		log.Fatal(err)
	}

	key := hpnn.GenerateKey(*seed + 2)
	if *keyHex != "" {
		if key, err = hpnn.KeyFromHex(*keyHex); err != nil {
			log.Fatal(err)
		}
	}
	sched := hpnn.NewSchedule(*schedSd)

	cfg := hpnn.TrainConfig{
		Epochs: *epochs, BatchSize: *batch, LR: *lr, Momentum: *momentum, Seed: *seed + 3,
		Optimizer: *optName, Schedule: *schedNm, WarmupEpochs: *warmup,
		Replicas: *replicas, GradShards: *shards,
		Hooks: hpnn.TrainHooks{Logf: log.Printf},
	}

	// Resume a checkpointed run: the checkpoint restores the weights AND
	// the engaged lock bits, so the key is not re-applied.
	resumed := false
	if *ckptPath != "" && *resume {
		if _, err := os.Stat(*ckptPath); err == nil {
			back, st, err := hpnn.LoadCheckpointFile(*ckptPath)
			if err != nil {
				log.Fatal(err)
			}
			if back.Config.Arch != arch {
				log.Fatalf("checkpoint architecture %s does not match -arch %s", back.Config.Arch, arch)
			}
			m = back
			cfg.Resume = &st
			resumed = true
			log.Printf("resuming from %s at epoch %d", *ckptPath, st.NextEpoch)
		}
	}
	dev := hpnn.NewTrustedDevice("owner-train", key)
	if !resumed {
		if err := scheme.InstrumentTraining(m, dev, sched); err != nil {
			log.Fatal(err)
		}
	}
	if *ckptPath != "" {
		cfg.Hooks.OnEpoch = func(info hpnn.TrainEpochInfo) bool {
			if err := hpnn.SaveCheckpointFile(*ckptPath, m, info.Snapshot()); err != nil {
				log.Fatalf("writing checkpoint: %v", err)
			}
			return true
		}
	}

	log.Printf("training %s on %s under scheme %s (%dx%dx%d, %d train / %d test, %d locked neurons, %d params)",
		arch, *dsName, scheme.Name(), ds.C, ds.H, ds.W, *trainN, *testN, m.LockedNeurons(), m.Net.ParamCount())
	res, err := hpnn.TrainChecked(m, ds.TrainX, ds.TrainY, ds.TestX, ds.TestY, cfg)
	if err != nil {
		log.Fatal(err)
	}
	ownerAcc := res.FinalTestAcc()

	// Publish a clone under the scheme and measure the thief's view of the
	// published artifact (Unlock with no device).
	pub, err := m.Clone()
	if err != nil {
		log.Fatal(err)
	}
	if err := scheme.Publish(pub, dev, sched); err != nil {
		log.Fatal(err)
	}
	thief, err := pub.Clone()
	if err != nil {
		log.Fatal(err)
	}
	if err := scheme.Unlock(thief, nil, sched); err != nil {
		log.Fatal(err)
	}
	noKey := thief.Accuracy(ds.TestX, ds.TestY, 64)

	fmt.Printf("owner accuracy (with key): %.2f%%\n", 100*ownerAcc)
	fmt.Printf("stolen-model accuracy (no key): %.2f%% (drop %.2f points)\n",
		100*noKey, 100*(ownerAcc-noKey))

	if err := hpnn.SaveModelFile(*out, pub); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("obfuscated model written to %s (scheme %s)\n", *out, scheme.Name())
	if *keyOut != "" {
		// The one place the raw key legitimately leaves the process: the
		// owner asked for it with -key-out, written 0600.
		//hpnn:keyok(owner-requested key escrow via -key-out, mode 0600)
		if err := os.WriteFile(*keyOut, []byte(key.Hex()+"\n"), 0o600); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("secret key written to %s (keep private; schedule seed %d also required)\n", *keyOut, *schedSd)
	} else {
		fmt.Printf("secret key fp=%s (not printed; use -key-out to save it)\n", key.Fingerprint())
	}
}
