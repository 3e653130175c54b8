package keys

import (
	"strings"
	"testing"
	"testing/quick"

	"hpnn/internal/rng"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(rng.New(1))
	b := Generate(rng.New(1))
	if !a.Equal(b) {
		t.Fatal("same seed must give same key")
	}
	c := Generate(rng.New(2))
	if a.Equal(c) {
		t.Fatal("different seeds should give different keys")
	}
}

func TestHexRoundTrip(t *testing.T) {
	k := Generate(rng.New(3))
	k2, err := FromHex(k.Hex())
	if err != nil {
		t.Fatal(err)
	}
	if !k.Equal(k2) {
		t.Fatal("hex round-trip lost the key")
	}
}

func TestFromHexRejectsBadInput(t *testing.T) {
	if _, err := FromHex("zz"); err == nil {
		t.Fatal("invalid hex accepted")
	}
	if _, err := FromHex("abcd"); err == nil {
		t.Fatal("short hex accepted")
	}
}

func TestFromBytesLength(t *testing.T) {
	if _, err := FromBytes(make([]byte, 31)); err == nil {
		t.Fatal("short byte key accepted")
	}
	if _, err := FromBytes(make([]byte, 32)); err != nil {
		t.Fatal("32-byte key rejected")
	}
}

func TestBitConsistentWithBytes(t *testing.T) {
	k, _ := FromBytes(append([]byte{0b00000101}, make([]byte, 31)...))
	if k.Bit(0) != 1 || k.Bit(1) != 0 || k.Bit(2) != 1 || k.Bit(3) != 0 {
		t.Fatal("Bit() does not match little-endian byte layout")
	}
	// Modular indexing.
	if k.Bit(KeyBits) != k.Bit(0) || k.Bit(-1) != k.Bit(KeyBits-1) {
		t.Fatal("Bit() modular indexing broken")
	}
}

func TestFlipBit(t *testing.T) {
	k := Generate(rng.New(4))
	for _, i := range []int{0, 7, 8, 100, 255} {
		f := k.FlipBit(i)
		if f.Bit(i) == k.Bit(i) {
			t.Fatalf("FlipBit(%d) did not flip", i)
		}
		if k.HammingDistance(f) != 1 {
			t.Fatalf("FlipBit(%d) changed %d bits", i, k.HammingDistance(f))
		}
	}
}

func TestFlipRandomBitsExactCount(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw) % (KeyBits + 1)
		k := Generate(rng.New(seed))
		flipped := k.FlipRandomBits(rng.New(seed+1), n)
		return k.HammingDistance(flipped) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestHammingDistanceSelfZero(t *testing.T) {
	k := Generate(rng.New(5))
	if k.HammingDistance(k) != 0 {
		t.Fatal("distance to self must be 0")
	}
	var zero Key
	if zero.HammingDistance(zero.FlipRandomBits(rng.New(1), KeyBits)) != KeyBits {
		t.Fatal("flipping all bits must give distance 256")
	}
}

func TestOnesCountOfRandomKeysNearHalf(t *testing.T) {
	total := 0
	for s := uint64(0); s < 50; s++ {
		total += Generate(rng.New(s)).OnesCount()
	}
	mean := float64(total) / 50
	if mean < 110 || mean > 146 {
		t.Fatalf("random key mean weight %v far from 128", mean)
	}
}

func TestStringDoesNotLeakKey(t *testing.T) {
	k := Generate(rng.New(6))
	s := k.String()
	if strings.Contains(s, k.Hex()) {
		t.Fatal("String() leaks the full key")
	}
}

func TestDeviceColumnBits(t *testing.T) {
	k := Generate(rng.New(7))
	d := NewDevice("dev-1", k)
	if d.Serial() != "dev-1" {
		t.Fatal("serial lost")
	}
	for col := 0; col < KeyBits; col++ {
		if d.ColumnBit(col) != k.Bit(col) {
			t.Fatalf("ColumnBit(%d) mismatch", col)
		}
	}
	cols := []int{0, 5, 5, 300}
	bits := d.BitsForColumns(cols)
	for i, c := range cols {
		if bits[i] != k.Bit(c) {
			t.Fatalf("BitsForColumns[%d] mismatch", i)
		}
	}
}

func TestDeviceFingerprintStableAndKeyed(t *testing.T) {
	k1 := Generate(rng.New(8))
	k2 := Generate(rng.New(9))
	d1a := NewDevice("a", k1)
	d1b := NewDevice("b", k1)
	d2 := NewDevice("c", k2)
	if d1a.Fingerprint() != d1b.Fingerprint() {
		t.Fatal("fingerprint must depend only on the key")
	}
	if d1a.Fingerprint() == d2.Fingerprint() {
		t.Fatal("different keys should give different fingerprints")
	}
}

func TestZeroKeyIsAllPlusOne(t *testing.T) {
	var k Key
	for i := 0; i < KeyBits; i++ {
		if k.Bit(i) != 0 {
			t.Fatal("zero key must have all bits 0")
		}
	}
}

func TestAuthorityIssueRevoke(t *testing.T) {
	key := Generate(rng.New(20))
	auth := NewAuthority(key)
	d1, err := auth.Issue("edge-001")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := auth.Issue("edge-001"); err == nil {
		t.Fatal("duplicate serial issued")
	}
	if _, err := auth.Issue(""); err == nil {
		t.Fatal("empty serial issued")
	}
	d2, _ := auth.Issue("edge-002")

	// Both devices answer correctly while licensed.
	if d1.ColumnBit(5) != key.Bit(5) || d2.ColumnBit(5) != key.Bit(5) {
		t.Fatal("licensed device answered wrong bit")
	}

	// Revoking one kills only that license.
	if err := auth.Revoke("edge-001"); err != nil {
		t.Fatal(err)
	}
	if err := auth.Revoke("ghost"); err == nil {
		t.Fatal("revoking unknown serial succeeded")
	}
	allZero := true
	for c := 0; c < KeyBits; c++ {
		if d1.ColumnBit(c) != 0 {
			allZero = false
		}
	}
	if !allZero {
		t.Fatal("revoked device still answers key bits")
	}
	if d2.ColumnBit(7) != key.Bit(7) {
		t.Fatal("revocation leaked to another device")
	}
	// BitsForColumns honours revocation too.
	for _, b := range d1.BitsForColumns([]int{1, 2, 3}) {
		if b != 0 {
			t.Fatal("BitsForColumns ignored revocation")
		}
	}
	got := auth.Issued()
	if len(got) != 2 || got[0] != "edge-001" || got[1] != "edge-002" {
		t.Fatalf("Issued() = %v", got)
	}
}

func TestRingOneDeviceOneModel(t *testing.T) {
	r := rng.New(42)
	devA := NewDevice("a", Generate(r))
	devB := NewDevice("b", Generate(r))
	ring := NewRing()

	if err := ring.Bind("", devA); err == nil {
		t.Fatal("empty model name bound")
	}
	if err := ring.Bind("alpha", devA); err != nil {
		t.Fatal(err)
	}
	// Rebinding the same pair is a no-op; crossing either direction fails.
	if err := ring.Bind("alpha", devA); err != nil {
		t.Fatalf("idempotent rebind failed: %v", err)
	}
	if err := ring.Bind("beta", devA); err == nil {
		t.Fatal("device bound to alpha accepted for beta — key material crossed tenants")
	}
	if err := ring.Bind("alpha", devB); err == nil {
		t.Fatal("model alpha rebound to a different device")
	}
	if err := ring.Bind("beta", devB); err != nil {
		t.Fatal(err)
	}
	// Nil devices (commodity tenants) bind freely and never conflict.
	if err := ring.Bind("plain1", nil); err != nil {
		t.Fatal(err)
	}
	if err := ring.Bind("plain2", nil); err != nil {
		t.Fatal(err)
	}
	if d, ok := ring.Device("alpha"); !ok || d != devA {
		t.Fatal("bound device not returned")
	}
	if d, ok := ring.Device("plain1"); !ok || d != nil {
		t.Fatal("commodity binding not returned as nil device")
	}
	if _, ok := ring.Device("ghost"); ok {
		t.Fatal("unbound model reported a device")
	}
	models := ring.Models()
	if len(models) != 4 {
		t.Fatalf("ring lists %v, want 4 models", models)
	}
	for i := 1; i < len(models); i++ {
		if models[i-1] >= models[i] {
			t.Fatalf("ring listing not sorted: %v", models)
		}
	}
}

// TestDeviceZeroize: wiping a device zeroes the sealed key's backing
// storage in place and makes every subsequent query answer like a revoked
// license — zero mask stream, identity-free zero bits, no fingerprint
// change needed because Fingerprint is never consulted after teardown.
func TestDeviceZeroize(t *testing.T) {
	d := NewDevice("edge-z", Generate(rng.New(7)))
	if d.Zeroized() {
		t.Fatal("fresh device reports zeroized")
	}
	// Establish that the device is live first, so the post-wipe checks
	// prove a transition rather than a dead fixture.
	live := d.MaskStream("m", 32)
	any := false
	for _, b := range live {
		any = any || b != 0
	}
	if !any {
		t.Fatal("live device produced an all-zero mask stream")
	}

	d.Zeroize()

	if !d.Zeroized() {
		t.Fatal("Zeroize did not mark the device")
	}
	for i, b := range d.key.b {
		if b != 0 {
			t.Fatalf("key byte %d = %#x after Zeroize; backing storage not wiped", i, b)
		}
	}
	for _, b := range d.MaskStream("m", 32) {
		if b != 0 {
			t.Fatal("zeroized device leaked a non-zero mask stream")
		}
	}
	for col := 0; col < KeyBits; col++ {
		if d.ColumnBit(col) != 0 {
			t.Fatalf("zeroized device answered column %d with a live bit", col)
		}
	}
	perm := d.Permutation("p", 8)
	for i, p := range perm {
		if p != i {
			t.Fatalf("zeroized device returned a keyed permutation %v; want identity", perm)
		}
	}
	if !d.Revoked() {
		t.Fatal("zeroized device does not read as revoked")
	}
}

// TestRingZeroize: after Ring.Zeroize the binding is gone and the
// device's key storage is wiped, while other tenants' devices are intact.
func TestRingZeroize(t *testing.T) {
	r := rng.New(11)
	devA := NewDevice("a", Generate(r))
	devB := NewDevice("b", Generate(r))
	ring := NewRing()
	if err := ring.Bind("alpha", devA); err != nil {
		t.Fatal(err)
	}
	if err := ring.Bind("beta", devB); err != nil {
		t.Fatal(err)
	}

	ring.Zeroize("alpha")
	if _, ok := ring.Device("alpha"); ok {
		t.Fatal("zeroized model still bound")
	}
	if !devA.Zeroized() {
		t.Fatal("ring eviction did not wipe the tenant's device")
	}
	for i, b := range devA.key.b {
		if b != 0 {
			t.Fatalf("key byte %d = %#x after ring Zeroize", i, b)
		}
	}
	// The other tenant's device is untouched.
	if devB.Zeroized() {
		t.Fatal("Zeroize of alpha wiped beta's device")
	}
	// Zeroizing an unknown or commodity (nil-device) model is a no-op.
	ring.Zeroize("ghost")
	if err := ring.Bind("plain", nil); err != nil {
		t.Fatal(err)
	}
	ring.Zeroize("plain")
	if _, ok := ring.Device("plain"); ok {
		t.Fatal("commodity binding survived Zeroize")
	}
}
