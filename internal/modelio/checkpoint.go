package modelio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"

	"hpnn/internal/core"
	"hpnn/internal/lockscheme"
	"hpnn/internal/train"
)

// Checkpoint record: everything a killed training run needs to resume
// bitwise. Unlike the published model format (which deliberately strips
// key material), a checkpoint is the OWNER'S private artifact — it embeds
// the lock bits and engagement state alongside the weights, the
// optimizer's slot state (momentum velocity or Adam moments), the
// LR-schedule position and the shuffle-seed stream, plus the trajectory
// recorded so far. Treat checkpoint files like key files.
//
// Layout (little-endian, after the "HPCK" magic and a format version):
//
//	u64  model blob length, then the blob (the public model format:
//	     architecture config + weights + batch-norm statistics)
//	u32  lock count; per lock: u32 neurons, u8 engaged, neurons×u8 bits
//	u32  next epoch (the LR-schedule and shuffle-stream position)
//	u64  shuffle seed
//	str  schedule descriptor (resume sanity check)
//	str  optimizer kind ("sgd"/"adam"), u32 optimizer step counter
//	u32  slot count; per slot: u32 vector count; per vector: u32 len + f64s
//	u32  epoch-loss count + f64s; u32 test-acc count + f64s
//	u32  gradient micro-shard count (version 3 only)

// ckptMagic identifies serialized HPNN training checkpoints.
var ckptMagic = [4]byte{'H', 'P', 'C', 'K'}

// Checkpoint versions. Version 1 is the original layout, implicitly the
// default HPNN XOR scheme; version 2 inserts the lock-scheme identifier
// right after the version word (mirroring the model format). Default-scheme
// checkpoints keep writing version 1, preserving pre-scheme bytes exactly.
// Version 3 records data-parallel runs: the scheme string is always present
// (canonicalized, since the default scheme's stamp may be empty) and a
// trailing u32 carries train.State.Shards — the micro-shard count that
// fixes the run's numerics. The replica count is deliberately NOT recorded:
// checkpoints are replica-count-invariant, so a run trained at K=4 resumes
// bitwise at K=2. Sequential runs (Shards == 0) keep writing v1/v2 bytes
// unchanged.
const (
	ckptVersion   uint32 = 1
	ckptVersionV2 uint32 = 2
	ckptVersionV3 uint32 = 3
)

// Defensive bounds for the decoder (fuzzed; see FuzzDecodeCheckpoint).
const (
	maxModelBlob   = 1 << 30 // 1 GiB serialized model
	maxLocks       = 1 << 16
	maxLockNeurons = 1 << 24
	maxEpochs      = 1 << 20
	maxSlots       = 1 << 16
	maxSlotVectors = 8
	maxShards      = 1 << 16
)

// SaveCheckpoint writes a resumable training checkpoint for m with
// trainer state st (from train.Trainer.Snapshot / EpochInfo.Snapshot).
func SaveCheckpoint(w io.Writer, m *core.Model, st train.State) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(ckptMagic[:]); err != nil {
		return err
	}
	if !lockscheme.Valid(m.Scheme) {
		return fmt.Errorf("modelio: model stamped with unknown lock scheme %q", m.Scheme)
	}
	switch {
	case st.Shards != 0:
		// v3 always carries the scheme string, canonicalized — a
		// default-scheme model may be stamped "", which the scheme-bearing
		// load path rejects.
		if st.Shards < 0 || st.Shards > maxShards {
			return fmt.Errorf("modelio: checkpoint shard count %d out of range", st.Shards)
		}
		if err := writeU32(bw, ckptVersionV3); err != nil {
			return err
		}
		if err := writeString(bw, lockscheme.Canonical(m.Scheme)); err != nil {
			return err
		}
	case lockscheme.IsDefault(m.Scheme):
		if err := writeU32(bw, ckptVersion); err != nil {
			return err
		}
	default:
		if err := writeU32(bw, ckptVersionV2); err != nil {
			return err
		}
		if err := writeString(bw, m.Scheme); err != nil {
			return err
		}
	}
	// The model record is length-prefixed because its own reader is
	// buffered and would over-consume a shared stream.
	var blob bytes.Buffer
	if err := Save(&blob, m); err != nil {
		return fmt.Errorf("modelio: embedding model in checkpoint: %w", err)
	}
	if err := writeU64(bw, uint64(blob.Len())); err != nil {
		return err
	}
	if _, err := bw.Write(blob.Bytes()); err != nil {
		return err
	}
	locks := m.Locks()
	if err := writeU32(bw, uint32(len(locks))); err != nil {
		return err
	}
	for _, l := range locks {
		bits := l.Bits()
		if err := writeU32(bw, uint32(len(bits))); err != nil {
			return err
		}
		engaged := byte(0)
		if l.Engaged {
			engaged = 1
		}
		if err := bw.WriteByte(engaged); err != nil {
			return err
		}
		// Lock bits are checkpoint state by design: HPCK files live on the
		// owner's training host, and resume must re-engage the exact lock.
		// This is the single choke point where they touch a writer.
		//hpnn:keyok(owner-side HPCK checkpoint needs lock bits to resume training)
		if _, err := bw.Write(bits); err != nil {
			return err
		}
	}
	if err := writeU32(bw, uint32(st.NextEpoch)); err != nil {
		return err
	}
	if err := writeU64(bw, st.Seed); err != nil {
		return err
	}
	if err := writeString(bw, st.Schedule); err != nil {
		return err
	}
	if err := writeString(bw, st.Optimizer.Kind); err != nil {
		return err
	}
	if err := writeU32(bw, uint32(st.Optimizer.Step)); err != nil {
		return err
	}
	if err := writeU32(bw, uint32(len(st.Optimizer.Slots))); err != nil {
		return err
	}
	var c f64Codec
	for _, slot := range st.Optimizer.Slots {
		if err := writeU32(bw, uint32(len(slot))); err != nil {
			return err
		}
		for _, vec := range slot {
			if err := c.writeLen(bw, vec); err != nil {
				return err
			}
		}
	}
	if err := c.writeLen(bw, st.EpochLoss); err != nil {
		return err
	}
	if err := c.writeLen(bw, st.TestAcc); err != nil {
		return err
	}
	if st.Shards != 0 {
		if err := writeU32(bw, uint32(st.Shards)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadCheckpoint reads a checkpoint saved by SaveCheckpoint: it rebuilds
// the model (weights, batch-norm statistics, lock bits and engagement
// state) and returns the trainer state to pass to train.Trainer.Restore
// (or core.TrainConfig.Resume). Malformed input returns an error — never
// a panic.
func LoadCheckpoint(r io.Reader) (*core.Model, train.State, error) {
	var st train.State
	br := bufio.NewReader(r)
	var m4 [4]byte
	if _, err := io.ReadFull(br, m4[:]); err != nil {
		return nil, st, fmt.Errorf("modelio: reading checkpoint magic: %w", err)
	}
	if m4 != ckptMagic {
		return nil, st, fmt.Errorf("modelio: bad checkpoint magic %q", m4)
	}
	ver, err := readU32(br)
	if err != nil {
		return nil, st, err
	}
	scheme := "" // v1: implicit default scheme
	switch ver {
	case ckptVersion:
	case ckptVersionV2, ckptVersionV3:
		if scheme, err = readString(br); err != nil {
			return nil, st, err
		}
		if scheme == "" || !lockscheme.Valid(scheme) {
			return nil, st, fmt.Errorf("modelio: unknown lock scheme %q in checkpoint", scheme)
		}
	default:
		return nil, st, fmt.Errorf("modelio: unsupported checkpoint version %d", ver)
	}
	blobLen, err := readU64(br)
	if err != nil {
		return nil, st, err
	}
	if blobLen > maxModelBlob {
		return nil, st, fmt.Errorf("modelio: checkpoint model blob %d bytes exceeds limit", blobLen)
	}
	// CopyN grows the buffer with the data actually present, so a bogus
	// length cannot force a huge allocation up front.
	var blob bytes.Buffer
	if _, err := io.CopyN(&blob, br, int64(blobLen)); err != nil {
		return nil, st, fmt.Errorf("modelio: reading embedded model: %w", err)
	}
	model, err := Load(bytes.NewReader(blob.Bytes()))
	if err != nil {
		return nil, st, fmt.Errorf("modelio: decoding embedded model: %w", err)
	}
	// The scheme rides in two places (checkpoint header and embedded model
	// blob); a disagreement means a corrupted or spliced record.
	if lockscheme.Canonical(scheme) != lockscheme.Canonical(model.Scheme) {
		return nil, st, fmt.Errorf("modelio: checkpoint scheme %q disagrees with embedded model scheme %q",
			lockscheme.Canonical(scheme), lockscheme.Canonical(model.Scheme))
	}
	locks := model.Locks()
	nLocks, err := readU32(br)
	if err != nil {
		return nil, st, err
	}
	if nLocks > maxLocks || int(nLocks) != len(locks) {
		return nil, st, fmt.Errorf("modelio: checkpoint has %d locks, architecture needs %d", nLocks, len(locks))
	}
	for _, l := range locks {
		n, err := readU32(br)
		if err != nil {
			return nil, st, err
		}
		if n > maxLockNeurons || int(n) != l.Neurons() {
			return nil, st, fmt.Errorf("modelio: lock %s has %d checkpoint bits, needs %d", l.ID, n, l.Neurons())
		}
		engaged, err := br.ReadByte()
		if err != nil {
			return nil, st, err
		}
		bits := make([]byte, n)
		if _, err := io.ReadFull(br, bits); err != nil {
			return nil, st, err
		}
		for i, b := range bits {
			bits[i] = b & 1
		}
		l.SetBits(bits)
		if engaged != 0 {
			l.Engage()
		} else {
			l.Disengage()
		}
	}
	nextEpoch, err := readU32(br)
	if err != nil {
		return nil, st, err
	}
	if nextEpoch > maxEpochs {
		return nil, st, fmt.Errorf("modelio: checkpoint epoch %d exceeds limit", nextEpoch)
	}
	st.NextEpoch = int(nextEpoch)
	if st.Seed, err = readU64(br); err != nil {
		return nil, st, err
	}
	if st.Schedule, err = readString(br); err != nil {
		return nil, st, err
	}
	if st.Optimizer.Kind, err = readString(br); err != nil {
		return nil, st, err
	}
	optStep, err := readU32(br)
	if err != nil {
		return nil, st, err
	}
	st.Optimizer.Step = int(optStep)
	nSlots, err := readU32(br)
	if err != nil {
		return nil, st, err
	}
	if nSlots > maxSlots {
		return nil, st, fmt.Errorf("modelio: checkpoint has %d optimizer slots, limit %d", nSlots, maxSlots)
	}
	st.Optimizer.Slots = make([][][]float64, nSlots)
	var c f64Codec
	for i := range st.Optimizer.Slots {
		nVecs, err := readU32(br)
		if err != nil {
			return nil, st, err
		}
		if nVecs > maxSlotVectors {
			return nil, st, fmt.Errorf("modelio: optimizer slot %d has %d vectors, limit %d", i, nVecs, maxSlotVectors)
		}
		if nVecs == 0 {
			continue
		}
		vecs := make([][]float64, nVecs)
		for j := range vecs {
			if vecs[j], err = c.readLen(br); err != nil {
				return nil, st, err
			}
		}
		st.Optimizer.Slots[i] = vecs
	}
	if st.EpochLoss, err = c.readLen(br); err != nil {
		return nil, st, err
	}
	if st.TestAcc, err = c.readLen(br); err != nil {
		return nil, st, err
	}
	if len(st.EpochLoss) > maxEpochs || len(st.TestAcc) > maxEpochs {
		return nil, st, fmt.Errorf("modelio: checkpoint trajectory exceeds epoch limit")
	}
	if ver == ckptVersionV3 {
		shards, err := readU32(br)
		if err != nil {
			return nil, st, err
		}
		if shards == 0 || shards > maxShards {
			return nil, st, fmt.Errorf("modelio: checkpoint shard count %d out of range", shards)
		}
		st.Shards = int(shards)
	}
	return model, st, nil
}

// SaveCheckpointFile writes the checkpoint atomically: to a temporary
// sibling first, then rename, so a crash mid-write never clobbers the
// previous good checkpoint — the property the kill/resume flow relies on.
func SaveCheckpointFile(path string, m *core.Model, st train.State) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := SaveCheckpoint(f, m, st); err != nil {
		_ = f.Close()      // the encode error is the one worth reporting
		_ = os.Remove(tmp) // best-effort cleanup of the partial temp file
		return err
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp) // best-effort cleanup of the partial temp file
		return err
	}
	return os.Rename(tmp, path)
}

// LoadCheckpointFile reads a checkpoint from path.
func LoadCheckpointFile(path string) (*core.Model, train.State, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, train.State{}, err
	}
	defer f.Close()
	return LoadCheckpoint(f)
}

// readChunk bounds how many values readLen reads at a time.
const readChunk = 4096

// readLen reads a u32-length-prefixed float64 slice. The slice grows with
// the data actually present, one chunk at a time, so a forged length
// cannot force a huge allocation before the stream runs dry.
func (c *f64Codec) readLen(r io.Reader) ([]float64, error) {
	n, err := readU32(r)
	if err != nil {
		return nil, err
	}
	if n > maxTensorElems {
		return nil, fmt.Errorf("modelio: float slice length %d exceeds limit", n)
	}
	out := make([]float64, 0, min(int(n), readChunk))
	for len(out) < int(n) {
		k := min(int(n)-len(out), readChunk)
		out = append(out, make([]float64, k)...)
		if err := c.read(r, out[len(out)-k:]); err != nil {
			return nil, err
		}
	}
	return out, nil
}
