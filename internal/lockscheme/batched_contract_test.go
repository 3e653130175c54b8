// External test package: the batched contract clauses are checked against
// the real accelerator, and internal/tpu imports internal/lockscheme — an
// in-package test would be an import cycle. Living outside the package is
// also the point: the suite runs against the same public surface any engine
// implementor would use.
package lockscheme_test

import (
	"testing"

	"hpnn/internal/core"
	"hpnn/internal/keys"
	"hpnn/internal/lockscheme"
	"hpnn/internal/schedule"
	"hpnn/internal/tensor"
	"hpnn/internal/tpu"
)

// tpuBackend binds the contract suite's InferenceBackend to the
// accelerator's two backends: Predict is the golden MMU path
// (PredictSample, sample by sample), PredictBatch is the GEMM tier in one
// PredictBatchInto call. A fresh accelerator per call keeps the binding
// stateless, so every probe also judges a fresh plan compile.
type tpuBackend struct{}

func (tpuBackend) Predict(s lockscheme.Scheme, m *core.Model, dev *keys.Device, sched *schedule.Schedule, x *tensor.Tensor) ([]int, error) {
	acc, err := tpu.NewAcceleratorFor(s, tpu.DefaultConfig(), dev, sched)
	if err != nil {
		return nil, err
	}
	n := x.Shape[0]
	feat := x.Len() / n
	preds := make([]int, n)
	for i := range preds {
		if preds[i], err = acc.PredictSample(m, tensor.FromSlice(x.Data[i*feat:(i+1)*feat], x.Shape[1:]...)); err != nil {
			return nil, err
		}
	}
	return preds, nil
}

func (tpuBackend) PredictBatch(s lockscheme.Scheme, m *core.Model, dev *keys.Device, sched *schedule.Schedule, x *tensor.Tensor) ([]int, error) {
	acc, err := tpu.NewAcceleratorFor(s, tpu.DefaultConfig(), dev, sched)
	if err != nil {
		return nil, err
	}
	preds := make([]int, x.Shape[0])
	return preds, acc.PredictBatchInto(preds, m, x)
}

// TestSchemeContractBatched runs the batched-inference contract clauses for
// every registered scheme against the tpu accelerator. The name shares the
// TestSchemeContract prefix so scripts/check.sh's quick contract gate picks
// it up without a separate entry.
func TestSchemeContractBatched(t *testing.T) {
	cfg := lockscheme.FullContract()
	if testing.Short() {
		cfg = lockscheme.QuickContract()
	}
	for _, name := range lockscheme.Names() {
		s, err := lockscheme.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			rep, violations := lockscheme.RunBatchedContract(s, cfg, tpuBackend{})
			for _, v := range violations {
				t.Error(v)
			}
			t.Logf("owner %.3f, batched owner %.3f, batched no-key %.3f",
				rep.OwnerAcc, rep.UnlockedAcc, rep.NoKeyAcc)
		})
	}
}
