// hpnn-serve runs published HPNN models as a network inference service on
// the simulated trusted hardware: a TCP listener feeding the multi-tenant
// serving registry, which routes each request to its model's tenant —
// worker shards, each a locked accelerator, that take batches from one
// bounded request queue; compiled lazily and sealed, evicted LRU under the
// workspace-memory budget.
//
// Two modes share one serving stack:
//
//   - Single-model (-model): the file registers as the default tenant and
//     is compiled eagerly, exactly the pre-registry behaviour.
//   - Model-zoo (-zoo URL): every model published in the zoo registers as a
//     tenant; -poll watches the zoo by ETag and hot-swaps re-published
//     models with zero downtime (in-flight requests drain on the old
//     version, new requests route to the new one).
//
// The protocol is length-prefixed binary frames (see internal/serve/wire.go).
// v2 request frames carry a model ID; v1 frames (and empty IDs) route to
// the default model, so pre-registry clients keep working. Clients encode
// samples with hpnn.EncodeServeRequestTo and read answers with
// hpnn.DecodeServeResponse, one response per request, in order, per
// connection; retry-status responses (overload, swap races) decode as
// ErrServerOverloaded so clients back off and resubmit. On SIGINT/SIGTERM
// the server drains accepted requests and prints per-tenant reports.
//
// Keys are per tenant: -keys-dir holds one <model>.hex per model; -key /
// -key-file provision every tenant (each still gets its OWN device — key
// material never crosses tenants). Models without a key serve on commodity
// hardware, the paper's attacker scenario.
//
// Example:
//
//	hpnn-serve -model model.hpnn -key-file key.hex -addr 127.0.0.1:7077
//	hpnn-serve -zoo http://localhost:8080 -keys-dir keys/ -default-model fashion-cnn1 \
//	           -mem-budget 67108864 -poll 2s
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"hpnn"
)

func main() {
	log.SetFlags(0)
	var (
		modelPath = flag.String("model", "", "published model file (single-model mode)")
		zooURL    = flag.String("zoo", "", "model-zoo base URL; serve every published model (zoo mode)")
		defModel  = flag.String("default-model", "", "model v1 frames and empty model IDs route to")
		memBudget = flag.Int("mem-budget", 0, "workspace-memory budget in bytes across resident tenants (0 = unbudgeted)")
		poll      = flag.Duration("poll", 0, "zoo watch interval for hot-swapping re-published models (0 = off)")
		keyHex    = flag.String("key", "", "HPNN key as hex for every tenant (empty = commodity hardware)")
		keyFile   = flag.String("key-file", "", "read the key hex from this file")
		keysDir   = flag.String("keys-dir", "", "directory of per-model key files named <model>.hex")
		schedSd   = flag.Uint64("sched-seed", 77, "private hardware-schedule seed")
		addr      = flag.String("addr", "127.0.0.1:7077", "TCP listen address")
		shards    = flag.Int("shards", 0, "worker shards per tenant, each with a private accelerator (0 = auto)")
		maxBatch  = flag.Int("max-batch", 0, "largest coalesced batch (0 = default 8)")
		queue     = flag.Int("queue", 0, "bounded request-queue depth per tenant (0 = auto)")
		bits      = flag.Int("bits", 0, "datapath quantization width 2-8 (0 = native 8)")
	)
	flag.Parse()
	if (*modelPath == "") == (*zooURL == "") {
		log.Fatal("exactly one of -model (single-model mode) or -zoo (zoo mode) is required")
	}

	sharedHex := *keyHex
	if *keyFile != "" {
		raw, err := os.ReadFile(*keyFile)
		if err != nil {
			log.Fatal(err)
		}
		sharedHex = strings.TrimSpace(string(raw))
	}
	// provisioned collects every device this process creates so shutdown
	// can zeroize the sealed keys. Appends happen from main and from the
	// zoo watcher goroutine; the read below is ordered after watch.Wait(),
	// so no lock is needed.
	var provisioned []*hpnn.Device
	// deviceFor provisions one tenant's trusted device: its own key file
	// under -keys-dir when present, else the shared key, else nil
	// (commodity). Every tenant gets a distinct device — the registry's key
	// ring enforces that they never cross.
	deviceFor := func(model string) (*hpnn.Device, error) {
		hexStr := sharedHex
		if *keysDir != "" {
			raw, err := os.ReadFile(filepath.Join(*keysDir, model+".hex"))
			switch {
			case err == nil:
				hexStr = strings.TrimSpace(string(raw))
			case os.IsNotExist(err):
			default:
				return nil, err
			}
		}
		if hexStr == "" {
			return nil, nil
		}
		key, err := hpnn.KeyFromHex(hexStr)
		if err != nil {
			return nil, fmt.Errorf("key for %q: %w", model, err)
		}
		dev := hpnn.NewTrustedDevice("serve/"+model, key)
		provisioned = append(provisioned, dev)
		return dev, nil
	}

	acfg := hpnn.DefaultAcceleratorConfig()
	acfg.Bits = *bits
	reg := hpnn.NewModelRegistry(acfg, hpnn.RegistryConfig{
		Tenant: hpnn.ServeConfig{
			Shards: *shards, MaxBatch: *maxBatch, QueueDepth: *queue,
		},
		MaxWorkspaceBytes: *memBudget,
		DefaultModel:      *defModel,
	})

	register := func(name string, blob []byte, etag string) error {
		dev, err := deviceFor(name)
		if err != nil {
			return err
		}
		if err := reg.Register(name, blob, dev, hpnn.NewSchedule(*schedSd)); err != nil {
			return err
		}
		reg.SetETag(name, etag)
		scenario := "commodity accelerator (no key)"
		if dev != nil {
			scenario = "trusted device (key on-chip)"
		}
		fmt.Printf("registered model %q — %s\n", name, scenario)
		return nil
	}

	var zoo *hpnn.ZooClient
	if *modelPath != "" {
		blob, err := os.ReadFile(*modelPath)
		if err != nil {
			log.Fatal(err)
		}
		name := *defModel
		if name == "" {
			name = "default"
		}
		if err := register(name, blob, ""); err != nil {
			log.Fatal(err)
		}
		// Eager compile+seal, the pre-registry single-model behaviour: the
		// first request pays no cold start.
		if err := reg.Warm(name); err != nil {
			log.Fatal(err)
		}
	} else {
		zoo = hpnn.NewZooClient(*zooURL)
		recs, err := zoo.ListRecords()
		if err != nil {
			log.Fatal(err)
		}
		if len(recs) == 0 {
			log.Fatalf("zoo %s has no published models", *zooURL)
		}
		for _, rec := range recs {
			blob, etag, err := zoo.FetchBlob(rec.Name, "")
			if err != nil {
				log.Fatal(err)
			}
			if err := register(rec.Name, blob, etag); err != nil {
				log.Fatal(err)
			}
		}
		if *defModel != "" {
			if err := reg.Warm(*defModel); err != nil {
				log.Fatal(err)
			}
		}
	}

	// Catch the shutdown signals before clients can connect: a signal that
	// arrives once the listener is up must drain and zeroize, not kill the
	// process through the default handler.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serving %d model(s) on %s: %s\n", len(reg.Names()), ln.Addr(), strings.Join(reg.Names(), ", "))

	stopWatch := make(chan struct{})
	var watch sync.WaitGroup
	if zoo != nil && *poll > 0 {
		watch.Add(1)
		//hpnn:allow(gofunc) zoo watch loop owned by the server main; exits via stopWatch on shutdown
		go func() {
			defer watch.Done()
			watchZoo(reg, zoo, register, *poll, stopWatch)
		}()
	}

	var conns sync.WaitGroup
	//hpnn:allow(gofunc) accept-loop goroutine owned by the server main; exits when the listener closes
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed on shutdown
			}
			conns.Add(1)
			//hpnn:allow(gofunc) per-connection handler; drained via the conns WaitGroup on shutdown
			go func() {
				defer conns.Done()
				handle(conn, reg)
			}()
		}
	}()

	<-sig
	fmt.Println("shutting down: draining accepted requests")
	start := time.Now() //hpnn:allow(determinism) wall-clock drain timing for the shutdown report
	close(stopWatch)
	watch.Wait()
	_ = ln.Close() // shutting down; nothing to do with a close error
	infos := reg.Close()
	for _, info := range infos {
		fmt.Printf("model %s (scheme %s, v%d): %s\n", info.Name, info.Scheme, info.Version,
			strings.ReplaceAll(info.Stats.String(), "\n", "\n  "))
		fmt.Printf("  hardware: %d MACs, %d cycles, %d locked outputs\n",
			info.Hardware.MACs, info.Hardware.Cycles, info.Hardware.LockedOutputs)
	}
	c := reg.Counters()
	fmt.Printf("registry: %d compiles, %d evictions, %d hot-swaps, %d reroutes\n",
		c.Compiles, c.Evictions, c.Swaps, c.Reroutes)
	fmt.Printf("drained in %v\n", time.Since(start).Round(time.Millisecond)) //hpnn:allow(determinism) shutdown report
	// The sealed keys were only ever consulted while compiling and running
	// plans; with the registry drained, wipe every self-provisioned device
	// so no key byte outlives its tenant in process memory (the registry's
	// Release path has already zeroed the accelerators' derived sign masks).
	for _, d := range provisioned {
		d.Zeroize()
	}
	if len(provisioned) > 0 {
		fmt.Printf("zeroized %d tenant device(s)\n", len(provisioned))
	}
	// Connections blocked reading the next request die with the process;
	// every accepted request has already been answered by Close's drain.
}

// watchZoo polls the zoo every interval: a changed ETag hot-swaps the
// tenant via Deploy, a new record registers a new tenant. Transient zoo
// errors are logged and retried on the next tick.
func watchZoo(reg *hpnn.ModelRegistry, zoo *hpnn.ZooClient, register func(string, []byte, string) error, interval time.Duration, stop <-chan struct{}) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		recs, err := zoo.ListRecords()
		if err != nil {
			log.Printf("zoo watch: %v", err)
			continue
		}
		known := make(map[string]bool)
		for _, name := range reg.Names() {
			known[name] = true
		}
		for _, rec := range recs {
			if !known[rec.Name] {
				blob, etag, err := zoo.FetchBlob(rec.Name, "")
				if err != nil {
					log.Printf("zoo watch: fetching new model %q: %v", rec.Name, err)
					continue
				}
				if err := register(rec.Name, blob, etag); err != nil {
					log.Printf("zoo watch: registering %q: %v", rec.Name, err)
				}
				continue
			}
			blob, etag, err := zoo.FetchBlob(rec.Name, reg.ETag(rec.Name))
			switch {
			case err == nil:
				if err := reg.Deploy(rec.Name, blob); err != nil {
					log.Printf("zoo watch: deploying %q: %v", rec.Name, err)
					continue
				}
				reg.SetETag(rec.Name, etag)
				fmt.Printf("hot-swapped model %q (zoo %s)\n", rec.Name, etag)
			case errors.Is(err, hpnn.ErrZooNotModified):
				// unchanged; nothing to do
			default:
				log.Printf("zoo watch: polling %q: %v", rec.Name, err)
			}
		}
	}
}

// handle serves one connection: a loop of request frame → route → predict →
// response frame. Per-request failures (bad shape, unknown model, overload,
// swap race, shutdown) are reported in-band — transient ones as retry
// status — so the client can react; malformed frames or a closed peer
// terminate the connection.
func handle(conn net.Conn, reg *hpnn.ModelRegistry) {
	defer conn.Close()
	ctx := context.Background()
	for {
		x, model, err := hpnn.DecodeServeRequestModel(conn)
		if err != nil {
			return
		}
		class, err := reg.Predict(ctx, model, x)
		if err := hpnn.EncodeServeResponse(conn, class, err); err != nil {
			return
		}
	}
}
