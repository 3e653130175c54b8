package hpnn

// One benchmark per table/figure of the paper's evaluation, plus the
// ablation studies from DESIGN.md §5. Each benchmark regenerates its
// artifact at the "bench" profile (reduced scale; see EXPERIMENTS.md for
// the scale substitutions) and reports the headline quantities as custom
// metrics, so `go test -bench=.` both exercises and summarizes the
// reproduction. Use cmd/hpnn-bench for the full formatted tables.

import (
	"fmt"

	"testing"

	"hpnn/internal/experiments"
	"hpnn/internal/stats"
)

// BenchmarkTable1 regenerates Table I: original vs locked vs fine-tuned
// accuracy on all three dataset/architecture pairs.
func BenchmarkTable1(b *testing.B) {
	b.ReportAllocs()
	p := experiments.Bench()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(p, nil)
		if err != nil {
			b.Fatal(err)
		}
		var orig, locked, drop float64
		for _, r := range rows {
			orig += r.OriginalAcc
			locked += r.LockedAcc
			drop += r.LockedDrop
		}
		n := float64(len(rows))
		b.ReportMetric(100*orig/n, "orig-acc-%")
		b.ReportMetric(100*locked/n, "locked-acc-%")
		b.ReportMetric(drop/n, "drop-pts")
	}
}

// BenchmarkFig3 regenerates the model-capacity box plots: accuracy across
// random keys vs the unlocked baseline.
func BenchmarkFig3(b *testing.B) {
	b.ReportAllocs()
	p := experiments.Bench()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3(p, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res {
			gap := r.Summary.Mean - r.BaselineAcc
			if gap < 0 {
				gap = -gap
			}
			b.ReportMetric(100*r.Summary.Mean, string(r.Arch)+"-mean-%")
			b.ReportMetric(100*gap, string(r.Arch)+"-baseline-gap-pts")
		}
	}
}

// BenchmarkFig4_TPUOverhead regenerates the hardware analysis: gate
// overhead, zero cycle overhead and end-to-end device accuracies.
func BenchmarkFig4_TPUOverhead(b *testing.B) {
	b.ReportAllocs()
	p := experiments.Bench()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4Hardware(p, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Report.XORGates), "xor-gates")
		b.ReportMetric(res.Report.OverheadPaperPct, "gate-overhead-%")
		b.ReportMetric(float64(res.CyclesLocked-res.CyclesPlain), "cycle-overhead")
		b.ReportMetric(100*res.TPUWithKey, "tpu-key-acc-%")
		b.ReportMetric(100*res.TPUNoKey, "tpu-nokey-acc-%")
	}
}

// BenchmarkFig5 regenerates the thief-dataset-size sweep.
func BenchmarkFig5(b *testing.B) {
	b.ReportAllocs()
	p := experiments.Bench()
	for i := 0; i < b.N; i++ {
		sets, err := experiments.Fig5(p, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range sets {
			finals := make([]float64, 0, len(s.Curves))
			for _, c := range s.Curves {
				finals = append(finals, c.Acc[len(c.Acc)-1])
			}
			// Gap between the strongest attack (α=10%) and the owner.
			gap := s.OwnerAcc - finals[len(finals)-1]
			b.ReportMetric(100*gap, string(s.Arch)+"-owner-gap-pts")
			b.ReportMetric(100*stats.Summarize(finals).Mean, string(s.Arch)+"-ft-mean-%")
		}
	}
}

// BenchmarkFig6 regenerates the learning-rate sweep.
func BenchmarkFig6(b *testing.B) {
	b.ReportAllocs()
	p := experiments.Bench()
	for i := 0; i < b.N; i++ {
		sets, err := experiments.Fig6(p, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range sets {
			best := 0.0
			for _, c := range s.Curves {
				for _, a := range c.Acc {
					if a > best {
						best = a
					}
				}
			}
			b.ReportMetric(100*(s.OwnerAcc-best), s.Dataset+"-best-gap-pts")
		}
	}
}

// BenchmarkFig7 regenerates the random- vs HPNN-initialized comparison.
func BenchmarkFig7(b *testing.B) {
	b.ReportAllocs()
	p := experiments.Bench()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(p, nil)
		if err != nil {
			b.Fatal(err)
		}
		var maxGap float64
		for _, r := range res {
			for j := range r.HPNNFT {
				gap := r.HPNNFT[j] - r.RandomFT[j]
				if gap < 0 {
					gap = -gap
				}
				if r.Alphas[j] > 0 && gap > maxGap {
					maxGap = gap
				}
			}
		}
		b.ReportMetric(100*maxGap, "max-leakage-gap-pts")
	}
}

// BenchmarkCryptoBaseline regenerates the §II encryption-overhead
// comparison.
func BenchmarkCryptoBaseline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.CryptoBaseline(nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.DecryptMS, string(r.Arch)+"-aes-dec-ms")
		}
	}
}

// BenchmarkAblationLockGranularity measures collapse vs lock granularity.
func BenchmarkAblationLockGranularity(b *testing.B) {
	b.ReportAllocs()
	p := experiments.Bench()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationLockGranularity(p, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(100*r.NoKeyAcc, r.Granularity+"-nokey-%")
		}
	}
}

// BenchmarkAblationLockedLayers measures collapse vs locked-layer subset.
func BenchmarkAblationLockedLayers(b *testing.B) {
	b.ReportAllocs()
	p := experiments.Bench()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationLockedLayers(p, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(100*r.NoKeyAcc, r.Subset+"-nokey-%")
		}
	}
}

// BenchmarkAblationKeyDistance measures accuracy vs key Hamming distance.
func BenchmarkAblationKeyDistance(b *testing.B) {
	b.ReportAllocs()
	p := experiments.Bench()
	for i := 0; i < b.N; i++ {
		rows, ownerAcc, err := experiments.AblationKeyDistance(p, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*ownerAcc, "owner-%")
		b.ReportMetric(100*rows[len(rows)-1].Acc, "dist256-%")
	}
}

// BenchmarkAblationQuant measures device fidelity across datapath widths.
func BenchmarkAblationQuant(b *testing.B) {
	b.ReportAllocs()
	p := experiments.Bench()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationQuant(p, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(100*r.TPUAcc, fmt.Sprintf("int%d-acc-%%", r.Bits))
		}
	}
}

// BenchmarkKeyRecovery measures the greedy key-recovery attacker's gain.
func BenchmarkKeyRecovery(b *testing.B) {
	b.ReportAllocs()
	p := experiments.Bench()
	for i := 0; i < b.N; i++ {
		res, err := experiments.KeyRecovery(p, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.OwnerAcc, "owner-%")
		b.ReportMetric(100*res.TestAcc[len(res.TestAcc)-1], "attacker-%")
	}
}

// BenchmarkTransformAttacks measures the transformation-attack sweep.
func BenchmarkTransformAttacks(b *testing.B) {
	b.ReportAllocs()
	p := experiments.Bench()
	for i := 0; i < b.N; i++ {
		rows, owner, err := experiments.TransformAttacks(p, nil)
		if err != nil {
			b.Fatal(err)
		}
		worst := 0.0
		for _, r := range rows {
			if r.NoKeyAcc > worst {
				worst = r.NoKeyAcc
			}
		}
		b.ReportMetric(100*owner, "owner-%")
		b.ReportMetric(100*worst, "best-transform-nokey-%")
	}
}

// BenchmarkWatermarkVsHPNN measures the watermarking-baseline comparison.
func BenchmarkWatermarkVsHPNN(b *testing.B) {
	b.ReportAllocs()
	p := experiments.Bench()
	for i := 0; i < b.N; i++ {
		c, err := experiments.WatermarkVsHPNN(p, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*c.WMPirateAcc, "wm-pirate-%")
		b.ReportMetric(100*c.HPNNPirateAcc, "hpnn-pirate-%")
	}
}
