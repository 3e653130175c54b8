// Package keys implements the HPNN secret key and the trusted-hardware key
// container of the paper (§III-A, §III-D).
//
// The HPNN key is a fixed-length bit string (256 bits, matching the number
// of accumulator units in the Google-TPU-like root of trust). During
// training the model owner expands it — through the private hardware
// scheduling algorithm (package schedule) — into one bit per locked neuron.
// At inference time the key never leaves the trusted device: Device seals
// the key and only answers per-column bit queries from the simulated
// hardware, mirroring TPM-style secure key storage.
package keys

import (
	"crypto/subtle"
	"encoding/hex"
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"hpnn/internal/rng"
)

// KeyBits is the HPNN key length in bits: one bit per accumulator unit of
// the 256×256 matrix-multiply unit (§III-D2).
const KeyBits = 256

// KeyBytes is the key length in bytes.
const KeyBytes = KeyBits / 8

// Key is a 256-bit HPNN key. The zero value is the all-zero key (every
// lock factor +1, i.e. an unlocked model).
type Key struct {
	b [KeyBytes]byte
}

// Generate draws a uniformly random key from r.
func Generate(r *rng.Rand) Key {
	var k Key
	for i := 0; i < KeyBytes; i += 8 {
		v := r.Uint64()
		for j := 0; j < 8; j++ {
			k.b[i+j] = byte(v >> (8 * j))
		}
	}
	return k
}

// FromBytes builds a key from exactly KeyBytes bytes.
func FromBytes(p []byte) (Key, error) {
	var k Key
	if len(p) != KeyBytes {
		return k, fmt.Errorf("keys: need %d bytes, got %d", KeyBytes, len(p))
	}
	copy(k.b[:], p)
	return k, nil
}

// FromHex parses a 64-character hex string.
func FromHex(s string) (Key, error) {
	p, err := hex.DecodeString(s)
	if err != nil {
		return Key{}, fmt.Errorf("keys: %w", err)
	}
	return FromBytes(p)
}

// Hex returns the key as a 64-character hex string.
func (k Key) Hex() string { return hex.EncodeToString(k.b[:]) }

// Bytes returns a copy of the raw key bytes.
func (k Key) Bytes() []byte { return append([]byte(nil), k.b[:]...) }

// Bit returns key bit i (little-endian within bytes); i is taken mod
// KeyBits so accumulator-column indices can be used directly.
func (k Key) Bit(i int) byte {
	i = ((i % KeyBits) + KeyBits) % KeyBits
	return (k.b[i/8] >> (i % 8)) & 1
}

// FlipBit returns a copy of k with bit i inverted.
func (k Key) FlipBit(i int) Key {
	i = ((i % KeyBits) + KeyBits) % KeyBits
	out := k
	out.b[i/8] ^= 1 << (i % 8)
	return out
}

// FlipRandomBits returns a copy of k with exactly n distinct random bits
// inverted — used by the key-distance ablation.
func (k Key) FlipRandomBits(r *rng.Rand, n int) Key {
	if n < 0 || n > KeyBits {
		panic(fmt.Sprintf("keys: cannot flip %d of %d bits", n, KeyBits))
	}
	perm := r.Perm(KeyBits)
	out := k
	for _, i := range perm[:n] {
		out.b[i/8] ^= 1 << (i % 8)
	}
	return out
}

// HammingDistance returns the number of differing bits between k and o.
func (k Key) HammingDistance(o Key) int {
	d := 0
	for i := range k.b {
		d += bits.OnesCount8(k.b[i] ^ o.b[i])
	}
	return d
}

// Equal reports whether two keys are identical, in constant time.
func (k Key) Equal(o Key) bool {
	return subtle.ConstantTimeCompare(k.b[:], o.b[:]) == 1
}

// OnesCount returns the key's Hamming weight.
func (k Key) OnesCount() int {
	c := 0
	for _, b := range k.b {
		c += bits.OnesCount8(b)
	}
	return c
}

// Fingerprint returns a short one-way identifier (the same Mix64 digest a
// Device reports), safe to log or embed in error messages: no prefix of
// the raw key survives the mix.
func (k Key) Fingerprint() string {
	h := rng.Mix64(0x48504e4e) // "HPNN"
	for _, b := range k.b {
		h = rng.Mix64(h ^ uint64(b))
	}
	return fmt.Sprintf("%016x", h)
}

// String renders the one-way fingerprint, never key material: the previous
// hex-prefix form put 32 raw key bits in every log line that formatted a
// key, which hpnn-lint's keyflow check now rejects.
func (k Key) String() string {
	return fmt.Sprintf("HPNNKey(fp=%s, weight=%d)", k.Fingerprint(), k.OnesCount())
}

// Device models the hardware root of trust: a sealed container holding the
// HPNN key in "on-chip" memory. Consumers (the TPU simulator, the owner's
// training pre-processing) can only query per-column key bits; the raw key
// is not retrievable through the Device API.
type Device struct {
	key    Key
	serial string
	// authority is set for devices provisioned through an Authority;
	// revoked devices answer every key-bit query with 0 (the lock
	// hardware degrades to the baseline function, which is useless on an
	// obfuscated model — the license is dead).
	authority *Authority
	// zeroized is set once the sealed key has been wiped; a zeroized
	// device answers every query like a revoked one. Without the flag a
	// wiped device would keep deriving streams from the all-zero key,
	// which is a valid (if degenerate) key, not a dead one.
	zeroized bool
}

// NewDevice provisions a trusted device with the given key. serial is a
// human-readable device identity for licensing bookkeeping.
func NewDevice(serial string, key Key) *Device {
	return &Device{key: key, serial: serial}
}

// Serial returns the device identity.
func (d *Device) Serial() string { return d.serial }

// ColumnBit returns the key bit wired to accumulator column col — the only
// key access the hardware exposes. A revoked device reads as all-zero.
func (d *Device) ColumnBit(col int) byte {
	if d.revokedNow() {
		return 0
	}
	return d.key.Bit(col)
}

// BitsForColumns expands a neuron→column assignment into per-neuron lock
// bits. This is the query the owner's one-time training pre-processing
// performs (§III-D3) and the query the MMU makes when streaming neurons
// through its accumulators.
func (d *Device) BitsForColumns(cols []int) []byte {
	out := make([]byte, len(cols))
	for i, c := range cols {
		out[i] = d.ColumnBit(c)
	}
	return out
}

// Fingerprint returns a short non-sensitive identifier derived from the
// key, used to check that a model and a device were provisioned together
// without revealing key material.
func (d *Device) Fingerprint() string { return d.key.Fingerprint() }

// Revoked reports whether this device's license has been pulled. The lock
// hardware checks it when deciding whether cached key-bit material (the
// batched engine's sign masks) is still valid; like ColumnBit it reveals
// nothing about the key itself.
func (d *Device) Revoked() bool { return d.revokedNow() }

// revokedNow reports whether this device's license has been pulled (or its
// key wiped, which is indistinguishable from the outside).
func (d *Device) revokedNow() bool {
	return d.zeroized || (d.authority != nil && d.authority.Revoked(d.serial))
}

// Zeroize wipes the sealed key in place and retires the device: every
// subsequent query answers like a revoked license. Callers must have
// quiesced the device first — Zeroize is the teardown path (tenant
// eviction, process shutdown), not a concurrent control.
func (d *Device) Zeroize() {
	for i := range d.key.b {
		d.key.b[i] = 0
	}
	d.zeroized = true
}

// Zeroized reports whether the sealed key has been wiped.
func (d *Device) Zeroized() bool { return d.zeroized }

// derive returns a generator keyed by the sealed key and a domain label.
// Every key byte feeds the seed chain, so flipping any single key bit
// rekeys the whole derived stream (the avalanche the cipher- and
// permutation-based lock schemes rely on). The raw key never leaves the
// device: only the mixed stream does.
func (d *Device) derive(domain string) *rng.Rand {
	h := rng.Mix64(0x4c4f434b) // "LOCK"
	for _, b := range d.key.b {
		h = rng.Mix64(h ^ uint64(b))
	}
	for _, c := range domain {
		h = rng.Mix64(h ^ uint64(c))
	}
	return rng.NewStream(h, rng.Mix64(h^0x646f6d61696e)) // "domain"
}

// MaskStream returns n key-derived pseudo-random bytes for the given
// domain label. Weight-cipher lock schemes use it as their keystream; like
// ColumnBit it is a one-way query — the stream reveals nothing about the
// raw key beyond its Mix64 image. A revoked device answers all zeros (the
// identity mask), so a dead license can no longer decrypt anything.
func (d *Device) MaskStream(domain string, n int) []byte {
	out := make([]byte, n)
	if d.revokedNow() {
		return out
	}
	r := d.derive(domain)
	for i := 0; i < n; i += 8 {
		v := r.Uint64()
		for j := 0; j < 8 && i+j < n; j++ {
			out[i+j] = byte(v >> (8 * j))
		}
	}
	return out
}

// Permutation returns a key-derived permutation of [0, n) for the given
// domain label — the query behind permutation/shuffle lock schemes. A
// revoked device answers the identity permutation.
func (d *Device) Permutation(domain string, n int) []int {
	if d.revokedNow() {
		p := make([]int, n)
		for i := range p {
			p[i] = i
		}
		return p
	}
	return d.derive(domain).Perm(n)
}

// Ring is the serving layer's key-isolation boundary: a registry of which
// trusted device unlocks which served model. Its invariant is one device,
// one model — a *Device bound to one tenant can never be bound to another,
// so key material sealed for one model's license cannot leak into a
// co-tenant's lowering, even when both run in the same process. The zero
// Ring is not usable; create with NewRing.
type Ring struct {
	mu      sync.Mutex
	byModel map[string]*Device
	owner   map[*Device]string
}

// NewRing returns an empty device ring.
func NewRing() *Ring {
	return &Ring{byModel: make(map[string]*Device), owner: make(map[*Device]string)}
}

// Bind associates model with dev. A nil dev is a valid binding (commodity
// serving, no key). Rebinding a model to the device it already holds is a
// no-op; binding a device that serves another model, or a model that holds
// another device, is an isolation violation and fails.
func (r *Ring) Bind(model string, dev *Device) error {
	if model == "" {
		return fmt.Errorf("keys: ring binding requires a model name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if cur, ok := r.byModel[model]; ok && cur != dev {
		return fmt.Errorf("keys: model %q is already bound to a different device", model)
	}
	if dev != nil {
		if owner, ok := r.owner[dev]; ok && owner != model {
			return fmt.Errorf("keys: device %q already serves model %q; keys never cross tenants",
				dev.Serial(), owner)
		}
		r.owner[dev] = model
	}
	r.byModel[model] = dev
	return nil
}

// Device returns the device bound to model, and whether a binding exists
// (the bound device may be nil for commodity tenants).
func (r *Ring) Device(model string) (*Device, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.byModel[model]
	return d, ok
}

// Zeroize unbinds model and wipes its device's sealed key, for tenants
// that are gone for good (registry shutdown, hpnn-serve process exit). The
// device cannot be rebound usefully afterwards: it answers like a revoked
// license.
func (r *Ring) Zeroize(model string) {
	r.mu.Lock()
	d, ok := r.byModel[model]
	if ok {
		if d != nil {
			delete(r.owner, d)
		}
		delete(r.byModel, model)
	}
	r.mu.Unlock()
	if d != nil {
		d.Zeroize()
	}
}

// Models lists the bound model names, sorted.
func (r *Ring) Models() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.byModel))
	//hpnn:allow(determinism) keys are collected then sorted below
	for m := range r.byModel {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Authority is the owner-side licensing service of Fig. 1: it provisions
// trusted devices (the "licenses" distributed to authorized end-users),
// tracks their serials and supports revocation. Revoked devices stop
// answering key-bit queries, modelling a root of trust that verifies its
// license state before unsealing the key.
type Authority struct {
	key     Key
	issued  map[string]*Device
	revoked map[string]bool
}

// NewAuthority creates a licensing authority holding the HPNN key.
func NewAuthority(key Key) *Authority {
	return &Authority{
		key:     key,
		issued:  make(map[string]*Device),
		revoked: make(map[string]bool),
	}
}

// Issue provisions a new trusted device under the given serial. Issuing
// the same serial twice fails (each license is a distinct physical device).
func (a *Authority) Issue(serial string) (*Device, error) {
	if serial == "" {
		return nil, fmt.Errorf("keys: empty device serial")
	}
	if _, dup := a.issued[serial]; dup {
		return nil, fmt.Errorf("keys: serial %q already issued", serial)
	}
	d := &Device{key: a.key, serial: serial, authority: a}
	a.issued[serial] = d
	return d, nil
}

// Revoke invalidates a previously issued device.
func (a *Authority) Revoke(serial string) error {
	if _, ok := a.issued[serial]; !ok {
		return fmt.Errorf("keys: unknown serial %q", serial)
	}
	a.revoked[serial] = true
	return nil
}

// Revoked reports whether a serial has been revoked.
func (a *Authority) Revoked(serial string) bool { return a.revoked[serial] }

// Issued lists the issued device serials.
func (a *Authority) Issued() []string {
	out := make([]string, 0, len(a.issued))
	for s := range a.issued {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
