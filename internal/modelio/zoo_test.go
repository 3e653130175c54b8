package modelio

import (
	"bytes"
	"errors"
	"net/http/httptest"
	"testing"

	"hpnn/internal/core"
)

// TestZooGetAliasing is the regression test for the slice-aliasing bug:
// Get must return a copy, in both directions. A caller mutating what it
// got must not corrupt the zoo's stored blob, and the zoo storing a blob
// must not alias the publisher's buffer.
func TestZooGetAliasing(t *testing.T) {
	m := sampleModel(t, core.MLP)
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	original := append([]byte(nil), buf.Bytes()...)

	zoo := NewZoo()
	upload := buf.Bytes()
	zoo.Put("m", upload)
	// Publisher reuses its buffer after Put: the stored blob must not move.
	for i := range upload {
		upload[i] = 0xAA
	}

	got, ok := zoo.Get("m")
	if !ok {
		t.Fatal("published model missing")
	}
	if !bytes.Equal(got, original) {
		t.Fatal("zoo stored an alias of the publisher's buffer")
	}
	// Consumer scribbles on its copy: the next Get must see the original.
	for i := range got {
		got[i] ^= 0xFF
	}
	again, ok := zoo.Get("m")
	if !ok {
		t.Fatal("published model missing on second get")
	}
	if !bytes.Equal(again, original) {
		t.Fatal("mutating a fetched blob corrupted the zoo's copy")
	}
}

// TestZooVersioning pins the hot-swap signal: every Put bumps the entry's
// version, Records carries it, and GetVersion agrees.
func TestZooVersioning(t *testing.T) {
	m := sampleModel(t, core.MLP)
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	zoo := NewZoo()
	zoo.Put("m", buf.Bytes())
	if _, v, _ := zoo.GetVersion("m"); v != 1 {
		t.Fatalf("first publish at version %d, want 1", v)
	}
	zoo.Put("m", buf.Bytes())
	if _, v, _ := zoo.GetVersion("m"); v != 2 {
		t.Fatalf("re-publish at version %d, want 2", v)
	}
	recs := zoo.Records()
	if len(recs) != 1 || recs[0].Version != 2 {
		t.Fatalf("records %+v, want one entry at version 2", recs)
	}
	if _, _, ok := zoo.GetVersion("ghost"); ok {
		t.Fatal("unpublished model reported a version")
	}
}

// TestZooConditionalFetch pins the ETag watch protocol end to end over
// HTTP: an unconditional fetch returns bytes and an ETag, a conditional
// fetch with the current ETag returns ErrNotModified with no body, and a
// re-publish changes the ETag so the next conditional fetch downloads.
func TestZooConditionalFetch(t *testing.T) {
	zoo := NewZoo()
	srv := httptest.NewServer(zoo.Handler())
	defer srv.Close()
	client := NewClient(srv.URL)

	m := sampleModel(t, core.CNN1)
	if err := client.Publish("m", m); err != nil {
		t.Fatal(err)
	}
	blob, etag, err := client.FetchBlob("m", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) == 0 || etag == "" {
		t.Fatalf("unconditional fetch: %d bytes, etag %q", len(blob), etag)
	}
	if _, err := Load(bytes.NewReader(blob)); err != nil {
		t.Fatalf("fetched blob does not decode: %v", err)
	}

	same, sameTag, err := client.FetchBlob("m", etag)
	if !errors.Is(err, ErrNotModified) {
		t.Fatalf("conditional fetch of unchanged model: %v, want ErrNotModified", err)
	}
	if same != nil || sameTag != etag {
		t.Fatalf("not-modified fetch returned %d bytes, etag %q", len(same), sameTag)
	}

	// Re-publish (new version, same weights is fine) → new ETag → download.
	if err := client.Publish("m", m); err != nil {
		t.Fatal(err)
	}
	blob2, etag2, err := client.FetchBlob("m", etag)
	if err != nil {
		t.Fatal(err)
	}
	if etag2 == etag {
		t.Fatalf("re-publish kept ETag %q", etag)
	}
	if len(blob2) == 0 {
		t.Fatal("changed model fetched no bytes")
	}
	if _, _, err := client.FetchBlob("ghost", ""); err == nil {
		t.Fatal("missing model fetched")
	}
}

// TestZooPublishBlob pins the bytes-in path checkpoint exports use,
// including server-side validation of junk.
func TestZooPublishBlob(t *testing.T) {
	zoo := NewZoo()
	srv := httptest.NewServer(zoo.Handler())
	defer srv.Close()
	client := NewClient(srv.URL)

	m := sampleModel(t, core.MLP)
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	if err := client.PublishBlob("m", buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	back, err := client.Fetch("m")
	if err != nil {
		t.Fatal(err)
	}
	if !sameForward(t, m, back) {
		t.Fatal("blob publish round-trip changed the network function")
	}
	if err := client.PublishBlob("junk", []byte("not a model")); err == nil {
		t.Fatal("junk blob published")
	}
}

// Get retrieves a copy of a serialized model. The copy is defensive in both
// directions: callers can mutate what they got, and a concurrent Put can
// never change bytes a caller is still decoding.
func (z *Zoo) Get(name string) ([]byte, bool) {
	b, _, ok := z.GetVersion(name)
	return b, ok
}
