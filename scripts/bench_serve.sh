#!/bin/sh
# Multi-tenant serve tracker into results/BENCH_serve.json
# (BenchmarkRegistryMultiModel / ColdCompile / SwapBlackout): per-model
# throughput with one CNN1 16x16 tenant per lock scheme behind the routing
# registry at batch 8, the cold-compile latency an evicted CNN1 or
# ResNet-18 x0.25 tenant pays on its next hit together with that tenant's
# resident accelerator bytes (one program plus one state per shard), and
# the hot-swap numbers — Deploy latency, the median over deploys of the
# worst request stall overlapping each deploy (blackout), and the
# failed-request count, whose acceptance target is exactly 0 — plus one
# server's single-request rate (BenchmarkServeSerializedLoop, an MLP 8x8
# tenant with one request in flight, so each waits for nothing but its own
# round trip). The file records the CPU count and benchtime it was
# measured with.
#
# BENCHTIME=2s scripts/bench_serve.sh   # longer runs for stable numbers
set -eu
cd "$(dirname "$0")/.."

benchtime="${BENCHTIME:-1s}"
nproc=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
out=results/BENCH_serve.json
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

go test -run '^$' \
	-bench 'BenchmarkRegistryMultiModel$|BenchmarkRegistryColdCompile$|BenchmarkRegistrySwapBlackout$|BenchmarkServeSerializedLoop$' \
	-benchtime "$benchtime" ./internal/serve/ | tee "$tmp"

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v benchtime="$benchtime" -v nproc="$nproc" '
function metric(name,    i) {
	for (i = 2; i <= NF; i++)
		if ($i == name) return $(i - 1)
	return 0
}
/^BenchmarkRegistryMultiModel\// {
	name = $1
	sub(/-[0-9]+$/, "", name)
	sub(/^BenchmarkRegistryMultiModel\/model=/, "", name)
	mrate[name] = metric("samples/sec")
	if (!(name in mseen)) { mseen[name] = 1; morder[++mn] = name }
}
/^BenchmarkRegistryColdCompile\// {
	name = $1
	sub(/-[0-9]+$/, "", name)
	sub(/^BenchmarkRegistryColdCompile\/model=/, "", name)
	cold_ns[name] = $3
	cold_bytes[name] = metric("tenant-bytes")
	if (!(name in cseen)) { cseen[name] = 1; corder[++cn] = name }
}
/^BenchmarkServeSerializedLoop/ {
	serialized = metric("samples/sec")
}
/^BenchmarkRegistrySwapBlackout/ {
	deploy_ns = $3
	blackout_med_ns = metric("blackout-med-ns")
	failed = metric("failed-req")
}
END {
	printf "{\n"
	printf "  \"generated\": \"%s\",\n", date
	printf "  \"benchtime\": \"%s\",\n", benchtime
	printf "  \"nproc\": %d,\n", nproc
	printf "  \"model\": \"CNN1 16x16\",\n"
	printf "  \"batch\": 8,\n"
	printf "  \"serialized_model\": \"MLP 8x8\",\n"
	printf "  \"serialized_samples_per_sec\": %s,\n", serialized
	printf "  \"multi_tenant\": {\n"
	printf "    \"samples_per_sec\": {\n"
	for (i = 1; i <= mn; i++) {
		s = morder[i]
		printf "      \"%s\": %s%s\n", s, mrate[s], (i < mn ? "," : "")
	}
	printf "    },\n"
	printf "    \"cold_compile\": {\n"
	for (i = 1; i <= cn; i++) {
		s = corder[i]
		printf "      \"%s\": {\"ns\": %s, \"tenant_bytes\": %s}%s\n", s, cold_ns[s], cold_bytes[s], (i < cn ? "," : "")
	}
	printf "    },\n"
	printf "    \"hot_swap\": {\n"
	printf "      \"deploy_ns\": %s,\n", deploy_ns
	printf "      \"blackout_med_ns\": %s,\n", blackout_med_ns
	printf "      \"failed_requests\": %s\n", failed
	printf "    }\n"
	printf "  }\n}\n"
}' "$tmp" >"$out"

echo "wrote $out"
