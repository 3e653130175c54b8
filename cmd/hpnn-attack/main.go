// hpnn-attack mounts the paper's model fine-tuning attack against a
// published HPNN model: load the stolen weights into the baseline
// architecture (or start from random weights) and retrain on a thief
// dataset.
//
// Example:
//
//	hpnn-attack -model model.hpnn -alpha 0.1 -init stolen
//	hpnn-attack -model model.hpnn -alpha 0.05 -init random -lr 0.01
package main

import (
	"flag"
	"fmt"
	"log"

	"hpnn"
	"hpnn/internal/attack"
)

func main() {
	log.SetFlags(0)
	var (
		modelPath = flag.String("model", "model.hpnn", "published (stolen) model file")
		dsName    = flag.String("dataset", "fashion", "benchmark the victim was trained on")
		trainN    = flag.Int("train-n", 800, "original training-set size (thief fraction is of this)")
		testN     = flag.Int("test-n", 300, "test samples")
		seed      = flag.Uint64("seed", 1, "dataset seed (must match training)")
		alpha     = flag.Float64("alpha", 0.10, "thief dataset fraction α")
		initMode  = flag.String("init", "stolen", "attacker initialization: stolen (HPNN fine-tuning) or random")
		epochs    = flag.Int("epochs", 8, "fine-tuning epochs")
		lr        = flag.Float64("lr", 0.02, "fine-tuning learning rate")
		momentum  = flag.Float64("momentum", 0.9, "fine-tuning momentum")
		mode      = flag.String("mode", "finetune", "attack mode: finetune or keyrecovery")
		queries   = flag.Int("queries", 500, "query budget for -mode keyrecovery")
		ckptPath  = flag.String("checkpoint", "", "write a resumable fine-tuning checkpoint here after every epoch")
		resume    = flag.Bool("resume", false, "continue from -checkpoint if it exists; the resumed attack reproduces the uninterrupted one bitwise")
		schemeNm  = flag.String("scheme", "", "lock scheme of the victim (empty = the model's own stamp; \"list\" prints the registry)")
		schedSd   = flag.Uint64("sched-seed", 77, "schedule seed assumed by -mode keyrecovery on non-default schemes (Kerckhoffs: schedule public, key secret)")
	)
	flag.Parse()

	if *schemeNm == "list" {
		fmt.Print(hpnn.DescribeLockSchemes())
		return
	}

	victim, err := hpnn.LoadModelFile(*modelPath)
	if err != nil {
		log.Fatal(err)
	}
	schemeName := hpnn.CanonicalLockScheme(victim.Scheme)
	if *schemeNm != "" && hpnn.CanonicalLockScheme(*schemeNm) != schemeName {
		log.Fatalf("-scheme %s does not match the model's stamp %s", *schemeNm, schemeName)
	}
	scheme, err := hpnn.LockSchemeByName(schemeName)
	if err != nil {
		log.Fatal(err)
	}
	ds, err := hpnn.GenerateDataset(hpnn.DatasetConfig{
		Name: *dsName, TrainN: *trainN, TestN: *testN,
		H: victim.Config.InH, W: victim.Config.InW, Seed: *seed,
	})
	if err != nil {
		log.Fatal(err)
	}

	if *mode == "keyrecovery" {
		if scheme.Name() != hpnn.CanonicalLockScheme("") {
			// Non-default schemes have no per-neuron lock bits to climb;
			// attack the 256-bit device key through the scheme's public
			// Unlock semantics instead.
			fmt.Printf("attack: greedy device-key recovery against scheme %s, α=%g%%, budget %d queries\n",
				scheme.Name(), *alpha*100, *queries)
			res, err := attack.RecoverKey(scheme, victim, hpnn.NewSchedule(*schedSd), ds, attack.SchemeKeyRecoveryConfig{
				ThiefFrac: *alpha, ThiefSeed: *seed + 11, MaxQueries: *queries, Seed: *seed + 12,
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("thief samples:      %d\n", res.ThiefSamples)
			fmt.Printf("bits tried/flipped: %d/%d (of %d key bits)\n", res.BitsTried, res.BitsFlipped, hpnn.KeyBits)
			fmt.Printf("thief accuracy:     %.2f%% → %.2f%%\n", 100*res.ThiefAccStart, 100*res.ThiefAccEnd)
			fmt.Printf("test accuracy:      %.2f%% → %.2f%%\n", 100*res.TestAccStart, 100*res.TestAccEnd)
			return
		}
		fmt.Printf("attack: greedy key recovery, α=%g%%, budget %d queries\n", *alpha*100, *queries)
		res, err := attack.RecoverLocks(victim, ds, attack.KeyRecoveryConfig{
			ThiefFrac: *alpha, ThiefSeed: *seed + 11, MaxQueries: *queries, Seed: *seed + 12,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("thief samples:      %d\n", res.ThiefSamples)
		fmt.Printf("bits tried/flipped: %d/%d (of %d locked neurons)\n",
			res.BitsTried, res.BitsFlipped, victim.LockedNeurons())
		fmt.Printf("thief accuracy:     %.2f%% → %.2f%%\n", 100*res.ThiefAccStart, 100*res.ThiefAccEnd)
		fmt.Printf("test accuracy:      %.2f%% → %.2f%%\n", 100*res.TestAccStart, 100*res.TestAccEnd)
		return
	}
	if *mode != "finetune" {
		log.Fatalf("unknown -mode %q (want finetune or keyrecovery)", *mode)
	}

	var init attack.Init
	switch *initMode {
	case "stolen":
		init = hpnn.InitStolen
	case "random":
		init = hpnn.InitRandom
	default:
		log.Fatalf("unknown -init %q (want stolen or random)", *initMode)
	}

	fmt.Printf("attack: %s, α=%g%% of %d training samples\n", init, *alpha*100, *trainN)
	res, _, err := hpnn.FineTune(victim, ds, hpnn.FineTuneConfig{
		ThiefFrac: *alpha, ThiefSeed: *seed + 11, Init: init, AttackerSeed: *seed + 12,
		Train: hpnn.TrainConfig{
			Epochs: *epochs, BatchSize: 16, LR: *lr, Momentum: *momentum, Seed: *seed + 13,
			Hooks: hpnn.TrainHooks{Logf: log.Printf},
		},
		CheckpointPath: *ckptPath, Resume: *resume,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("thief samples:        %d\n", res.ThiefSamples)
	fmt.Printf("pre-attack accuracy:  %.2f%% (stolen model on baseline architecture)\n", 100*res.PreAttackAcc)
	fmt.Printf("final accuracy:       %.2f%%\n", 100*res.FinalAcc)
	fmt.Printf("best accuracy:        %.2f%%\n", 100*res.BestAcc)
}
