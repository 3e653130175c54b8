// Package modelio serializes HPNN models to a compact binary format and
// implements the public model-sharing platform of Fig. 1: an HTTP model zoo
// where the owner publishes obfuscated models and end-users (authorized or
// not — the format is public by design) download them.
//
// Lock bits are deliberately NOT serialized: the published artifact is the
// baseline architecture plus obfuscated weights. Key material exists only
// inside trusted devices (package keys) and the owner's training pipeline.
package modelio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"hpnn/internal/core"
	"hpnn/internal/lockscheme"
)

// magic identifies serialized HPNN models.
var magic = [4]byte{'H', 'P', 'N', 'N'}

// Format versions. Version 1 is the original layout, implicitly the default
// HPNN XOR scheme; version 2 inserts the lock-scheme identifier right after
// the version word. Default-scheme models keep writing version 1, so every
// pre-scheme artifact round-trips byte-identically.
const (
	formatVersion   uint32 = 1
	formatVersionV2 uint32 = 2
)

// maxStringLen bounds deserialized strings defensively.
const maxStringLen = 1 << 16

// maxTensorElems bounds deserialized tensors defensively (512M params).
const maxTensorElems = 1 << 29

// Save writes m (architecture config + weights + batch-norm statistics) to w.
// The model's lock-scheme stamp travels with the artifact: non-default
// schemes select format version 2 with the scheme identifier inline.
func Save(w io.Writer, m *core.Model) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	if !lockscheme.Valid(m.Scheme) {
		return fmt.Errorf("modelio: model stamped with unknown lock scheme %q", m.Scheme)
	}
	if lockscheme.IsDefault(m.Scheme) {
		if err := writeU32(bw, formatVersion); err != nil {
			return err
		}
	} else {
		if err := writeU32(bw, formatVersionV2); err != nil {
			return err
		}
		if err := writeString(bw, m.Scheme); err != nil {
			return err
		}
	}
	cfg := m.Config
	if err := writeString(bw, string(cfg.Arch)); err != nil {
		return err
	}
	for _, v := range []int{cfg.InC, cfg.InH, cfg.InW, cfg.Classes} {
		if err := writeU32(bw, uint32(v)); err != nil {
			return err
		}
	}
	if err := writeF64(bw, cfg.WidthScale); err != nil {
		return err
	}
	if err := writeU64(bw, cfg.Seed); err != nil {
		return err
	}
	var c f64Codec
	params := m.Net.Params()
	if err := writeU32(bw, uint32(len(params))); err != nil {
		return err
	}
	for _, p := range params {
		if err := writeString(bw, p.Name); err != nil {
			return err
		}
		if err := c.writeLen(bw, p.Value.Data); err != nil {
			return err
		}
	}
	stats := core.BatchNormStats(m)
	if err := writeU32(bw, uint32(len(stats))); err != nil {
		return err
	}
	for _, s := range stats {
		if err := c.writeLen(bw, s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Load reads a model saved by Save: it rebuilds the architecture from the
// stored config, drawing no initial weights, and fills in the published
// weights one tensor at a time. All locks start engaged with zero bits
// (the baseline function) — applying a key is the caller's (i.e. the
// trusted hardware's) job.
func Load(r io.Reader) (*core.Model, error) {
	br := bufio.NewReader(r)
	var m4 [4]byte
	if _, err := io.ReadFull(br, m4[:]); err != nil {
		return nil, fmt.Errorf("modelio: reading magic: %w", err)
	}
	if m4 != magic {
		return nil, fmt.Errorf("modelio: bad magic %q", m4)
	}
	ver, err := readU32(br)
	if err != nil {
		return nil, err
	}
	scheme := "" // v1: implicit default scheme
	switch ver {
	case formatVersion:
	case formatVersionV2:
		if scheme, err = readString(br); err != nil {
			return nil, err
		}
		if scheme == "" || !lockscheme.Valid(scheme) {
			return nil, fmt.Errorf("modelio: unknown lock scheme %q", scheme)
		}
	default:
		return nil, fmt.Errorf("modelio: unsupported format version %d", ver)
	}
	arch, err := readString(br)
	if err != nil {
		return nil, err
	}
	var dims [4]uint32
	for i := range dims {
		if dims[i], err = readU32(br); err != nil {
			return nil, err
		}
	}
	widthScale, err := readF64(br)
	if err != nil {
		return nil, err
	}
	seed, err := readU64(br)
	if err != nil {
		return nil, err
	}
	model, err := core.NewBlankModel(core.Config{
		Arch: core.Arch(arch),
		InC:  int(dims[0]), InH: int(dims[1]), InW: int(dims[2]),
		Classes:    int(dims[3]),
		WidthScale: widthScale,
		Seed:       seed,
	})
	if err != nil {
		return nil, fmt.Errorf("modelio: rebuilding architecture: %w", err)
	}
	model.Scheme = scheme
	nParams, err := readU32(br)
	if err != nil {
		return nil, err
	}
	var c f64Codec
	params := model.Net.Params()
	if int(nParams) != len(params) {
		return nil, fmt.Errorf("modelio: file has %d parameters, architecture needs %d", nParams, len(params))
	}
	for _, p := range params {
		name, err := readString(br)
		if err != nil {
			return nil, err
		}
		if name != p.Name {
			return nil, fmt.Errorf("modelio: parameter order mismatch: file %q vs model %q", name, p.Name)
		}
		n, err := readU32(br)
		if err != nil {
			return nil, err
		}
		if int(n) != len(p.Value.Data) {
			return nil, fmt.Errorf("modelio: parameter %q has %d values, want %d", name, n, len(p.Value.Data))
		}
		if err := c.read(br, p.Value.Data); err != nil {
			return nil, err
		}
	}
	nStats, err := readU32(br)
	if err != nil {
		return nil, err
	}
	stats := core.BatchNormStats(model)
	if int(nStats) != len(stats) {
		return nil, fmt.Errorf("modelio: file has %d batch-norm blocks, architecture needs %d", nStats, len(stats))
	}
	for _, s := range stats {
		n, err := readU32(br)
		if err != nil {
			return nil, err
		}
		if int(n) != len(s) {
			return nil, fmt.Errorf("modelio: batch-norm stat size mismatch")
		}
		if err := c.read(br, s); err != nil {
			return nil, err
		}
	}
	return model, nil
}

// SaveFile writes the model to path.
func SaveFile(path string, m *core.Model) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Save(f, m); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	return f.Close()
}

// LoadFile reads a model from path.
func LoadFile(path string) (*core.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// FlattenParams concatenates all parameter values, used by the encryption
// baseline measurements.
func FlattenParams(m *core.Model) []float64 {
	var out []float64
	for _, p := range m.Net.Params() {
		out = append(out, p.Value.Data...)
	}
	return out
}

// --- primitive encoders -----------------------------------------------------

// f64Codec moves float64 runs as little-endian IEEE bits through one
// reused byte buffer: one Write or ReadFull per run, not one per value.
type f64Codec struct{ buf []byte }

func (c *f64Codec) bytes(n int) []byte {
	if cap(c.buf) < 8*n {
		c.buf = make([]byte, 8*n)
	}
	return c.buf[:8*n]
}

func (c *f64Codec) write(w io.Writer, vs []float64) error {
	b := c.bytes(len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	_, err := w.Write(b)
	return err
}

// writeLen writes vs prefixed by its u32 length.
func (c *f64Codec) writeLen(w io.Writer, vs []float64) error {
	if err := writeU32(w, uint32(len(vs))); err != nil {
		return err
	}
	return c.write(w, vs)
}

// read fills dst from r, failing if r ends first.
func (c *f64Codec) read(r io.Reader, dst []float64) error {
	b := c.bytes(len(dst))
	if _, err := io.ReadFull(r, b); err != nil {
		return err
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return nil
}

func writeU32(w io.Writer, v uint32) error { return binary.Write(w, binary.LittleEndian, v) }
func writeU64(w io.Writer, v uint64) error { return binary.Write(w, binary.LittleEndian, v) }
func writeF64(w io.Writer, v float64) error {
	return writeU64(w, math.Float64bits(v))
}

func writeString(w io.Writer, s string) error {
	if len(s) > maxStringLen {
		return fmt.Errorf("modelio: string too long (%d)", len(s))
	}
	if err := writeU32(w, uint32(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readU32(r io.Reader) (uint32, error) {
	var v uint32
	err := binary.Read(r, binary.LittleEndian, &v)
	return v, err
}

func readU64(r io.Reader) (uint64, error) {
	var v uint64
	err := binary.Read(r, binary.LittleEndian, &v)
	return v, err
}

func readF64(r io.Reader) (float64, error) {
	v, err := readU64(r)
	return math.Float64frombits(v), err
}

func readString(r io.Reader) (string, error) {
	n, err := readU32(r)
	if err != nil {
		return "", err
	}
	if n > maxStringLen {
		return "", fmt.Errorf("modelio: string length %d exceeds limit", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
