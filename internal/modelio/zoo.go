package modelio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"

	"hpnn/internal/core"
	"hpnn/internal/lockscheme"
)

// Zoo is the public model-sharing platform of Fig. 1: an in-memory HTTP
// service where owners publish obfuscated models and anyone can list and
// download them. Distribution is deliberately open — HPNN's security rests
// on the hardware key, not on restricting access to the weights.
type Zoo struct {
	mu       sync.RWMutex
	models   map[string][]byte
	schemes  map[string]string // per-record lock-scheme identifier (canonical)
	versions map[string]uint64 // bumped on every Put; the ETag serving layer watch loops poll
}

// NewZoo returns an empty model zoo.
func NewZoo() *Zoo {
	return &Zoo{
		models:   make(map[string][]byte),
		schemes:  make(map[string]string),
		versions: make(map[string]uint64),
	}
}

// Record describes one published zoo entry: its name, the lock scheme the
// model was published under, and its version (bumped on every re-publish —
// the hot-swap signal serving registries watch). Pre-scheme (format v1)
// blobs read as the default HPNN XOR scheme.
type Record struct {
	Name    string `json:"name"`
	Scheme  string `json:"scheme"`
	Version uint64 `json:"version"`
}

// ErrNotModified is returned by conditional fetches when the server's copy
// still matches the caller's ETag — nothing to download, nothing to swap.
var ErrNotModified = fmt.Errorf("modelio: model not modified")

// etagFor renders a version as the HTTP ETag the zoo serves.
func etagFor(version uint64) string { return fmt.Sprintf("\"v%d\"", version) }

// SniffScheme reads just enough of a serialized model blob to report its
// lock-scheme identifier (canonicalized). It rejects bad magic, unsupported
// versions and unknown scheme IDs without decoding the weights.
func SniffScheme(blob []byte) (string, error) {
	br := bytes.NewReader(blob)
	var m4 [4]byte
	if _, err := io.ReadFull(br, m4[:]); err != nil {
		return "", fmt.Errorf("modelio: reading magic: %w", err)
	}
	if m4 != magic {
		return "", fmt.Errorf("modelio: bad magic %q", m4)
	}
	ver, err := readU32(br)
	if err != nil {
		return "", err
	}
	switch ver {
	case formatVersion:
		return lockscheme.DefaultName, nil
	case formatVersionV2:
		scheme, err := readString(br)
		if err != nil {
			return "", err
		}
		if scheme == "" || !lockscheme.Valid(scheme) {
			return "", fmt.Errorf("modelio: unknown lock scheme %q", scheme)
		}
		return lockscheme.Canonical(scheme), nil
	default:
		return "", fmt.Errorf("modelio: unsupported format version %d", ver)
	}
}

// Put stores a serialized model under name (local API, used by the server
// side and tests). The record's scheme field is sniffed from the blob
// header; unparseable blobs store with an empty scheme.
func (z *Zoo) Put(name string, blob []byte) {
	scheme, err := SniffScheme(blob)
	if err != nil {
		scheme = ""
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	z.models[name] = append([]byte(nil), blob...)
	z.schemes[name] = scheme
	z.versions[name]++
}

// GetVersion is Get plus the entry's current version — the pair the
// conditional HTTP handler and watch loops are built on.
func (z *Zoo) GetVersion(name string) ([]byte, uint64, bool) {
	z.mu.RLock()
	defer z.mu.RUnlock()
	b, ok := z.models[name]
	if !ok {
		return nil, 0, false
	}
	return append([]byte(nil), b...), z.versions[name], true
}

// Names lists the published model names, sorted.
func (z *Zoo) Names() []string {
	z.mu.RLock()
	defer z.mu.RUnlock()
	out := make([]string, 0, len(z.models))
	//hpnn:allow(determinism) keys are collected then sorted below
	for n := range z.models {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Records lists the published entries with their scheme identifiers,
// sorted by name.
func (z *Zoo) Records() []Record {
	names := z.Names()
	z.mu.RLock()
	defer z.mu.RUnlock()
	out := make([]Record, 0, len(names))
	for _, n := range names {
		out = append(out, Record{Name: n, Scheme: z.schemes[n], Version: z.versions[n]})
	}
	return out
}

// Handler serves the zoo over HTTP:
//
//	GET  /models           → JSON list of model names
//	GET  /models/{name}    → binary model download
//	POST /models/{name}    → publish (owner upload)
func (z *Zoo) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/models", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		// An encode error here means the client went away mid-response;
		// the status is already committed, so there is nothing to report.
		_ = json.NewEncoder(w).Encode(z.Names())
	})
	mux.HandleFunc("/records", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(z.Records())
	})
	mux.HandleFunc("/models/", func(w http.ResponseWriter, r *http.Request) {
		name := strings.TrimPrefix(r.URL.Path, "/models/")
		if name == "" || strings.Contains(name, "/") {
			http.Error(w, "invalid model name", http.StatusBadRequest)
			return
		}
		switch r.Method {
		case http.MethodGet:
			blob, version, ok := z.GetVersion(name)
			if !ok {
				http.Error(w, "model not found", http.StatusNotFound)
				return
			}
			etag := etagFor(version)
			w.Header().Set("ETag", etag)
			if r.Header.Get("If-None-Match") == etag {
				w.WriteHeader(http.StatusNotModified)
				return
			}
			w.Header().Set("Content-Type", "application/octet-stream")
			_, _ = w.Write(blob) // short write = client disconnect; nothing to report
		case http.MethodPost:
			blob, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<30))
			if err != nil {
				http.Error(w, "read error", http.StatusBadRequest)
				return
			}
			// Validate before accepting: the zoo only hosts HPNN models.
			if _, err := Load(bytes.NewReader(blob)); err != nil {
				http.Error(w, fmt.Sprintf("invalid model: %v", err), http.StatusUnprocessableEntity)
				return
			}
			z.Put(name, blob)
			w.WriteHeader(http.StatusCreated)
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
	return mux
}

// Client talks to a Zoo server.
type Client struct {
	Base string
	HTTP *http.Client
}

// NewClient returns a zoo client for the given base URL.
func NewClient(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/"), HTTP: http.DefaultClient}
}

// Publish serializes and uploads a model (the owner-side operation).
func (c *Client) Publish(name string, m *core.Model) error {
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		return err
	}
	resp, err := c.HTTP.Post(c.Base+"/models/"+name, "application/octet-stream", &buf)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return fmt.Errorf("modelio: publish failed: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	return nil
}

// PublishBlob uploads an already-serialized model blob under name. The
// owner-side path for artifacts that exist as bytes (checkpoint exports,
// files on disk) without a decode/re-encode round trip.
func (c *Client) PublishBlob(name string, blob []byte) error {
	resp, err := c.HTTP.Post(c.Base+"/models/"+name, "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return fmt.Errorf("modelio: publish failed: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	return nil
}

// FetchBlob downloads a published model's raw bytes along with the entry's
// ETag. A non-empty etag makes the fetch conditional: when the server's
// copy still matches, FetchBlob returns ErrNotModified and no bytes — the
// cheap poll serving watch loops run between hot-swaps.
func (c *Client) FetchBlob(name, etag string) ([]byte, string, error) {
	req, err := http.NewRequest(http.MethodGet, c.Base+"/models/"+name, nil)
	if err != nil {
		return nil, "", err
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNotModified:
		return nil, etag, ErrNotModified
	case http.StatusOK:
		blob, err := io.ReadAll(io.LimitReader(resp.Body, 1<<30))
		if err != nil {
			return nil, "", err
		}
		return blob, resp.Header.Get("ETag"), nil
	default:
		return nil, "", fmt.Errorf("modelio: fetch failed: %s", resp.Status)
	}
}

// Fetch downloads and deserializes a published model (the end-user or
// attacker operation — anyone can do this).
func (c *Client) Fetch(name string) (*core.Model, error) {
	resp, err := c.HTTP.Get(c.Base + "/models/" + name)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("modelio: fetch failed: %s", resp.Status)
	}
	return Load(resp.Body)
}

// ListRecords returns the published entries with their lock-scheme
// identifiers.
func (c *Client) ListRecords() ([]Record, error) {
	resp, err := c.HTTP.Get(c.Base + "/records")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("modelio: record list failed: %s", resp.Status)
	}
	var recs []Record
	if err := json.NewDecoder(resp.Body).Decode(&recs); err != nil {
		return nil, err
	}
	return recs, nil
}

// List returns the published model names.
func (c *Client) List() ([]string, error) {
	resp, err := c.HTTP.Get(c.Base + "/models")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("modelio: list failed: %s", resp.Status)
	}
	var names []string
	if err := json.NewDecoder(resp.Body).Decode(&names); err != nil {
		return nil, err
	}
	return names, nil
}
