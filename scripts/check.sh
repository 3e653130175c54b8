#!/bin/sh
# Fast correctness gate for the hot compute path: static analysis plus the
# concurrent packages under the race detector. The worker pool, the
# buffer-reusing layers and the serving layer (worker shards pulling from
# one request queue) are the repo's concurrent code, so this catches
# dispatch and request-lifecycle races without paying for the full (slow)
# suite.
set -eu
cd "$(dirname "$0")/.."

go vet ./...
# The benchmark is its own module (_perfbench/, outside ./...): compile and
# unit-test it here so an internal API change it depends on fails this gate
# instead of the next benchmark run.
(cd _perfbench && go vet . && go test .)
# The in-tree analyzer (DESIGN.md §11, §16): zero-alloc, determinism, and
# concurrency invariants as whole-module structural checks, plus the
# keyflow taint check (default-on) proving key material never reaches a
# log, error, file, or wire encoder outside the sanctioned choke points.
# Runs before the race gates — it is faster and its findings are cheaper
# to read.
go run ./cmd/hpnn-lint ./...
go test -race ./internal/tensor/... ./internal/nn/... ./internal/serve/... ./internal/train/...
# The accelerator's own concurrency surface (shard devices hammering one
# shared read-only program, the zero-alloc PredictSample golden path), the
# shard lifecycle (Bind sizes and seals a device before any MAC, its first
# batch allocates nothing, and the seal refuses any growth of any buffer,
# a larger batch's or PredictSample's MMU scratch) and its teardown
# (Release zeroes key bits, weights and every op output, then the shared
# program, never the published model) — by name, so the gate skips the tpu
# package's slow training suites.
go test -race -run 'TestServeConcurrentAccelerators|TestPredictSampleMatchesPredict|TestRelease|TestBind' ./internal/tpu/
# The serve lifecycle tests (hammer, close-under-load, backpressure,
# cancellation, buffer reuse after a cancelled Predict, shards sealed
# before any MAC, release of the shared program) are scheduler-sensitive;
# repeat them to shake out interleavings a single run can miss.
go test -race -count=3 -run TestServe ./internal/serve/
# Multi-tenant registry lifecycle (DESIGN.md §14): the cross-tenant hammer,
# hot-swap zero-drop/bitwise-split, LRU eviction under a memory budget and
# close-under-load are all swap/evict/route interleavings — repeat under
# the race detector like the serve suite above.
go test -race -count=3 -run TestRegistry ./internal/serve/
# Trainer engine determinism: kill/resume must reproduce the uninterrupted
# run bitwise (both optimizers, locked model), and the checkpoint codec
# must round-trip exactly. By name, so the gate stays fast.
go test -race -run 'TestBitwiseResume|TestResumeValidation|TestTrainerMatchesInlineLoop' ./internal/train/
go test -race -run 'TestCheckpoint' ./internal/modelio/
# Data-parallel trainer (DESIGN.md §15): K-replica runs must be bitwise
# identical for every replica count and worker-pool width, match the
# sequential loop at one shard, and survive a kill at K=4 resumed at K=2
# bitwise-equal to the uninterrupted run. The replica goroutines are the
# trainer's only concurrency, so these run under the race detector.
go test -race -run 'TestReplica' ./internal/train/
# Micro-shard decomposition properties: exact in-order partitions,
# bitwise-reproducible shard streams per (seed, epoch, shard count).
go test -race -run 'TestShard' ./internal/dataset/
# Packed GEMM engine invariants under the race detector: worker-count
# independence (bitwise) and the zero-alloc steady-state pin for the
# pooled packing scratch. By name, so the gate stays fast.
# TestGEMMExactOnInt8Codes pins the exactness the batched inference tier
# rests on: over int8 codes held as float64 the GEMM returns the exact
# integer product.
go test -race -run 'TestGEMMDeterministicAcrossWorkers|TestGEMMZeroAllocSteadyState|TestGEMMMatchesNaive|TestGEMMExactOnInt8Codes' ./internal/tensor/
# One executor, two MAC backends: the GEMM tier (int8 codes on the float
# GEMM) must match PredictSample, whose MACs all run on the simulated MMU,
# bitwise across every registered scheme and datapath width, extreme
# samples included; plus worker-count determinism, partial batches after
# Seal, revocation mid-service, and the quantizer pin. The checked-in fuzz
# corpus replays as unit cases under -race; the zero-alloc pin skips itself
# when the race detector is on.
go test -race -run 'TestPredictBatch|TestQuantizeSlice|FuzzPredictBatch' ./internal/tpu/
# Lock-scheme contract suite in its quick profile: every registered backend
# must honor the roundtrip/collapse/leakage/revocation clauses. -short
# selects QuickContract (small victims, seconds per scheme).
go test -short -run 'TestSchemeContract' ./internal/lockscheme/
