package hpnn_test

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"hpnn"
)

// TestCLIWorkflow builds the command-line tools and drives the full
// owner → publish → evaluate → attack flow through their real interfaces:
// hpnn-train writes a model and key, hpnn-eval checks all three usage
// scenarios, hpnn-attack mounts both attack modes, hpnn-tpu prints the
// overhead report.
func TestCLIWorkflow(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test skipped in -short mode")
	}
	dir := t.TempDir()
	bin := func(name string) string { return filepath.Join(dir, name) }
	for _, tool := range []string{"hpnn-train", "hpnn-eval", "hpnn-attack", "hpnn-tpu", "hpnn-dataset"} {
		out, err := exec.Command("go", "build", "-o", bin(tool), "./cmd/"+tool).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
	}
	model := filepath.Join(dir, "model.hpnn")
	keyFile := filepath.Join(dir, "key.hex")

	run := func(name string, args ...string) string {
		t.Helper()
		out, err := exec.Command(bin(name), args...).CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
		return string(out)
	}

	// Owner trains and saves.
	out := run("hpnn-train",
		"-dataset", "fashion", "-train-n", "400", "-test-n", "150",
		"-epochs", "5", "-out", model, "-key-out", keyFile)
	if !strings.Contains(out, "owner accuracy") {
		t.Fatalf("train output missing summary:\n%s", out)
	}
	if _, err := os.Stat(model); err != nil {
		t.Fatal("model file not written")
	}
	key, err := os.ReadFile(keyFile)
	if err != nil || len(strings.TrimSpace(string(key))) != 64 {
		t.Fatalf("key file malformed: %v %q", err, key)
	}

	// Authorized software evaluation.
	out = run("hpnn-eval", "-model", model, "-key-file", keyFile, "-test-n", "150")
	if !strings.Contains(out, "with key") {
		t.Fatalf("eval output unexpected:\n%s", out)
	}

	// Attacker evaluation (no key) — must mention the attacker scenario.
	out = run("hpnn-eval", "-model", model, "-test-n", "150")
	if !strings.Contains(out, "attacker") {
		t.Fatalf("no-key eval output unexpected:\n%s", out)
	}

	// Trusted-device (TPU) evaluation.
	out = run("hpnn-eval", "-model", model, "-key-file", keyFile, "-tpu", "-test-n", "60")
	if !strings.Contains(out, "trusted device") || !strings.Contains(out, "MACs") {
		t.Fatalf("tpu eval output unexpected:\n%s", out)
	}

	// Checkpoint/resume: an interrupted run (killed via a short -epochs)
	// resumed with -resume must reach the same owner accuracy as an
	// uninterrupted run with identical seeds.
	ckpt := filepath.Join(dir, "train.ckpt")
	model2 := filepath.Join(dir, "model2.hpnn")
	trainArgs := []string{
		"-dataset", "fashion", "-train-n", "400", "-test-n", "150",
		"-seed", "5", "-out", model2, "-checkpoint", ckpt,
	}
	run("hpnn-train", append(trainArgs, "-epochs", "2")...)
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatal("checkpoint file not written")
	}
	resumedOut := run("hpnn-train", append(trainArgs, "-epochs", "4", "-resume")...)
	if !strings.Contains(resumedOut, "resuming from") || !strings.Contains(resumedOut, "at epoch 2") {
		t.Fatalf("resume output unexpected:\n%s", resumedOut)
	}
	straightOut := run("hpnn-train",
		"-dataset", "fashion", "-train-n", "400", "-test-n", "150",
		"-seed", "5", "-out", filepath.Join(dir, "model3.hpnn"), "-epochs", "4")
	wantAcc := accuracyLine(t, straightOut)
	gotAcc := accuracyLine(t, resumedOut)
	if wantAcc != gotAcc {
		t.Fatalf("resumed run diverged: straight %q vs resumed %q", wantAcc, gotAcc)
	}

	// Fine-tuning attack.
	out = run("hpnn-attack", "-model", model, "-alpha", "0.05", "-epochs", "3",
		"-train-n", "400", "-test-n", "150")
	if !strings.Contains(out, "final accuracy") {
		t.Fatalf("attack output unexpected:\n%s", out)
	}

	// Key-recovery attack.
	out = run("hpnn-attack", "-model", model, "-mode", "keyrecovery", "-queries", "40",
		"-train-n", "400", "-test-n", "150")
	if !strings.Contains(out, "bits tried/flipped") {
		t.Fatalf("key-recovery output unexpected:\n%s", out)
	}

	// Hardware overhead report.
	out = run("hpnn-tpu", "-rows", "128", "-cols", "128")
	if !strings.Contains(out, "XOR gates") || !strings.Contains(out, "2048") {
		t.Fatalf("tpu report unexpected (128 cols → 2048 XOR gates):\n%s", out)
	}

	// Dataset contact sheets.
	sheets := filepath.Join(dir, "sheets")
	out = run("hpnn-dataset", "-dataset", "fashion", "-per-class", "3", "-img", "16", "-out", sheets)
	if !strings.Contains(out, "fashion.png") {
		t.Fatalf("dataset tool output unexpected:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(sheets, "fashion.png")); err != nil {
		t.Fatal("contact sheet not written")
	}
}

// accuracyLine extracts the "owner accuracy" summary line from
// hpnn-train's output — the exact printed accuracy, so a bitwise-resumed
// run must reproduce it character for character.
func accuracyLine(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "owner accuracy") {
			return line
		}
	}
	t.Fatalf("no owner-accuracy line in output:\n%s", out)
	return ""
}

// TestCLIServe drives the network inference service end to end: train a
// tiny model, start hpnn-serve on a TCP port, classify samples through the
// public wire codec (valid, malformed and mis-shaped requests), then shut
// the server down with SIGTERM and check the drain report. Its subtest
// restarts the server repeatedly and signals it the moment it listens.
func TestCLIServe(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test skipped in -short mode")
	}
	dir := t.TempDir()
	bin := func(name string) string { return filepath.Join(dir, name) }
	for _, tool := range []string{"hpnn-train", "hpnn-serve"} {
		out, err := exec.Command("go", "build", "-o", bin(tool), "./cmd/"+tool).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
	}

	model := filepath.Join(dir, "model.hpnn")
	keyFile := filepath.Join(dir, "key.hex")
	if out, err := exec.Command(bin("hpnn-train"),
		"-dataset", "fashion", "-train-n", "100", "-test-n", "30",
		"-epochs", "1", "-out", model, "-key-out", keyFile).CombinedOutput(); err != nil {
		t.Fatalf("hpnn-train: %v\n%s", err, out)
	}

	const addr = "127.0.0.1:18741"
	var output bytes.Buffer
	srv := exec.Command(bin("hpnn-serve"),
		"-model", model, "-key-file", keyFile, "-addr", addr, "-shards", "2")
	srv.Stdout, srv.Stderr = &output, &output
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Process.Kill()

	var conn net.Conn
	var err error
	for i := 0; i < 100; i++ {
		if conn, err = net.Dial("tcp", addr); err == nil {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("serve did not come up: %v\n%s", err, output.Bytes())
	}
	defer conn.Close()

	// Classify a batch of samples over one connection; responses come back
	// in order, one class in [0, 10) per request.
	ds, err := hpnn.GenerateDataset(hpnn.DatasetConfig{
		Name: "fashion", TrainN: 1, TestN: 8, H: 16, W: 16, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	feat := 16 * 16
	for i := 0; i < 8; i++ {
		x := hpnn.Tensor{Shape: []int{1, 16, 16}, Data: ds.TestX.Data[i*feat : (i+1)*feat]}
		if err := hpnn.EncodeServeRequest(conn, &x); err != nil {
			t.Fatal(err)
		}
		class, err := hpnn.DecodeServeResponse(conn)
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		if class < 0 || class >= 10 {
			t.Fatalf("sample %d: class %d out of range", i, class)
		}
	}

	// A mis-shaped request fails in-band; the connection stays usable.
	if err := hpnn.EncodeServeRequest(conn, hpnn.NewTensor(2, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := hpnn.DecodeServeResponse(conn); err == nil || !strings.Contains(err.Error(), "shape") {
		t.Fatalf("mis-shaped request answered with %v, want remote shape error", err)
	}
	x := hpnn.Tensor{Shape: []int{1, 16, 16}, Data: ds.TestX.Data[:feat]}
	if err := hpnn.EncodeServeRequest(conn, &x); err != nil {
		t.Fatal(err)
	}
	if _, err := hpnn.DecodeServeResponse(conn); err != nil {
		t.Fatalf("connection unusable after in-band error: %v", err)
	}

	// A malformed frame terminates the connection server-side.
	bad, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	bad.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	bad.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := bad.Read(make([]byte, 1)); err == nil {
		t.Fatal("server answered a frame beyond the size limit")
	}
	bad.Close()

	// Graceful shutdown: SIGTERM → drain → stats report.
	if err := srv.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Wait() }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("serve did not exit on SIGINT\n%s", output.Bytes())
	}
	got := output.String()
	if !strings.Contains(got, "trusted device") || !strings.Contains(got, "served") ||
		!strings.Contains(got, "latency p50") || !strings.Contains(got, "locked outputs") {
		t.Fatalf("shutdown report unexpected:\n%s", got)
	}

	t.Run("SIGTERMAfterBanner", func(t *testing.T) {
		for i := 0; i < 20; i++ {
			signalAfterBanner(t, bin("hpnn-serve"), model, keyFile)
		}
	})
}

// signalAfterBanner starts hpnn-serve on an ephemeral port and sends
// SIGTERM as soon as the listening banner is read — the earliest moment a
// client can connect. The server must treat it as a graceful shutdown:
// exit 0 after the drain report and the zeroization of its key device.
func signalAfterBanner(t *testing.T, serveBin, model, keyFile string) {
	t.Helper()
	var stderr bytes.Buffer
	srv := exec.Command(serveBin, "-model", model, "-key-file", keyFile, "-addr", "127.0.0.1:0", "-shards", "1")
	srv.Stderr = &stderr
	stdout, err := srv.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Process.Kill()

	var out strings.Builder
	r := bufio.NewReader(stdout)
	for {
		line, err := r.ReadString('\n')
		out.WriteString(line)
		if strings.HasPrefix(line, "serving 1 model(s) on ") {
			break
		}
		if err != nil {
			t.Fatalf("no listening banner: %v\n%s%s", err, out.String(), stderr.Bytes())
		}
	}
	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	rest, err := io.ReadAll(r)
	out.Write(rest)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Wait(); err != nil {
		t.Fatalf("SIGTERM after the banner: %v\n%s%s", err, out.String(), stderr.Bytes())
	}
	if got := out.String(); !strings.Contains(got, "drained in") || !strings.Contains(got, "zeroized 1 tenant device(s)") {
		t.Fatalf("no drain report after SIGTERM:\n%s%s", got, stderr.Bytes())
	}
}

// TestCLIBenchAndZoo drives the remaining tools: hpnn-bench (crypto
// experiment — fast) with JSON export, and the hpnn-zoo server/client
// round-trip over a real TCP port.
func TestCLIBenchAndZoo(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test skipped in -short mode")
	}
	dir := t.TempDir()
	bin := func(name string) string { return filepath.Join(dir, name) }
	for _, tool := range []string{"hpnn-bench", "hpnn-zoo", "hpnn-train"} {
		out, err := exec.Command("go", "build", "-o", bin(tool), "./cmd/"+tool).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
	}

	// hpnn-bench: fast experiment + JSON export.
	jsonDir := filepath.Join(dir, "json")
	out, err := exec.Command(bin("hpnn-bench"), "-exp", "crypto", "-profile", "bench", "-json", jsonDir).CombinedOutput()
	if err != nil {
		t.Fatalf("hpnn-bench: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "AES") {
		t.Fatalf("bench output unexpected:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(jsonDir, "crypto.json")); err != nil {
		t.Fatal("bench JSON not written")
	}

	// Train a tiny model to publish.
	model := filepath.Join(dir, "m.hpnn")
	if out, err := exec.Command(bin("hpnn-train"),
		"-dataset", "fashion", "-train-n", "100", "-test-n", "30",
		"-epochs", "1", "-out", model).CombinedOutput(); err != nil {
		t.Fatalf("hpnn-train: %v\n%s", err, out)
	}

	// hpnn-zoo server on a fixed test port.
	const addr = "127.0.0.1:18734"
	srv := exec.Command(bin("hpnn-zoo"), "-serve", "-addr", addr)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Process.Kill()
	base := "http://" + addr
	// Wait for the server to come up.
	ready := false
	for i := 0; i < 50; i++ {
		if resp, err := http.Get(base + "/models"); err == nil {
			resp.Body.Close()
			ready = true
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if !ready {
		t.Fatal("zoo server did not start")
	}

	run := func(args ...string) string {
		t.Helper()
		out, err := exec.Command(bin("hpnn-zoo"), args...).CombinedOutput()
		if err != nil {
			t.Fatalf("hpnn-zoo %v: %v\n%s", args, err, out)
		}
		return string(out)
	}
	run("-server", base, "-publish", "tiny", "-model", model)
	if out := run("-server", base, "-list"); !strings.Contains(out, "tiny") {
		t.Fatalf("zoo list missing model:\n%s", out)
	}
	fetched := filepath.Join(dir, "fetched.hpnn")
	run("-server", base, "-fetch", "tiny", "-out", fetched)
	if _, err := os.Stat(fetched); err != nil {
		t.Fatal("fetched model not written")
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer: the zoo-mode serve test
// polls a live process's output while the process keeps writing.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestCLIServeZoo drives the multi-tenant story end to end through the
// real tools: publish three models into a live zoo (one straight from an
// HPCK checkpoint via -publish-ckpt), serve them all from one hpnn-serve
// process with per-model keys, route v2 requests per model (and a v1
// request to the default tenant), re-publish a model and watch the server
// hot-swap it, then drain and check the per-tenant registry report.
func TestCLIServeZoo(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test skipped in -short mode")
	}
	dir := t.TempDir()
	bin := func(name string) string { return filepath.Join(dir, name) }
	for _, tool := range []string{"hpnn-train", "hpnn-zoo", "hpnn-serve"} {
		out, err := exec.Command("go", "build", "-o", bin(tool), "./cmd/"+tool).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
	}

	// Two trained models: alpha from a published .hpnn, beta left as a
	// private HPCK checkpoint for the -publish-ckpt path.
	modelA := filepath.Join(dir, "a.hpnn")
	keyA := filepath.Join(dir, "keyA.hex")
	if out, err := exec.Command(bin("hpnn-train"),
		"-dataset", "fashion", "-train-n", "100", "-test-n", "30",
		"-epochs", "1", "-out", modelA, "-key-out", keyA).CombinedOutput(); err != nil {
		t.Fatalf("hpnn-train: %v\n%s", err, out)
	}
	ckptB := filepath.Join(dir, "b.ckpt")
	keyB := filepath.Join(dir, "keyB.hex")
	if out, err := exec.Command(bin("hpnn-train"),
		"-dataset", "fashion", "-train-n", "100", "-test-n", "30", "-seed", "9",
		"-epochs", "1", "-out", filepath.Join(dir, "b.hpnn"), "-key-out", keyB,
		"-checkpoint", ckptB).CombinedOutput(); err != nil {
		t.Fatalf("hpnn-train (checkpoint): %v\n%s", err, out)
	}

	// Zoo server.
	const zooAddr = "127.0.0.1:18744"
	zooSrv := exec.Command(bin("hpnn-zoo"), "-serve", "-addr", zooAddr)
	if err := zooSrv.Start(); err != nil {
		t.Fatal(err)
	}
	defer zooSrv.Process.Kill()
	base := "http://" + zooAddr
	ready := false
	for i := 0; i < 50; i++ {
		if resp, err := http.Get(base + "/models"); err == nil {
			resp.Body.Close()
			ready = true
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if !ready {
		t.Fatal("zoo server did not start")
	}
	zoo := func(args ...string) string {
		t.Helper()
		out, err := exec.Command(bin("hpnn-zoo"), append([]string{"-server", base}, args...)...).CombinedOutput()
		if err != nil {
			t.Fatalf("hpnn-zoo %v: %v\n%s", args, err, out)
		}
		return string(out)
	}
	// Three tenants: alpha (published file, keyed), beta (straight from the
	// HPCK checkpoint, keyed), gamma (same published weights as alpha but
	// no key — the commodity scenario).
	zoo("-publish", "alpha", "-model", modelA)
	out := zoo("-publish", "beta", "-publish-ckpt", ckptB, "-key-file", keyB)
	if !strings.Contains(out, "published checkpoint") {
		t.Fatalf("checkpoint publish output unexpected:\n%s", out)
	}
	zoo("-publish", "gamma", "-model", modelA)
	if out := zoo("-list"); !strings.Contains(out, "alpha") || !strings.Contains(out, "beta") ||
		!strings.Contains(out, "v1") {
		t.Fatalf("zoo list missing entries or versions:\n%s", out)
	}

	// Per-model keys for the serving process.
	keysDir := filepath.Join(dir, "keys")
	if err := os.MkdirAll(keysDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]string{"alpha": keyA, "beta": keyB} {
		raw, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(keysDir, name+".hex"), raw, 0o600); err != nil {
			t.Fatal(err)
		}
	}

	// One serving process for the whole zoo, polling for hot-swaps.
	const addr = "127.0.0.1:18745"
	var output syncBuffer
	srv := exec.Command(bin("hpnn-serve"),
		"-zoo", base, "-keys-dir", keysDir, "-default-model", "alpha",
		"-poll", "200ms", "-addr", addr, "-shards", "2")
	srv.Stdout, srv.Stderr = &output, &output
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Process.Kill()

	var conn net.Conn
	var err error
	for i := 0; i < 100; i++ {
		if conn, err = net.Dial("tcp", addr); err == nil {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("serve did not come up: %v\n%s", err, output.String())
	}
	defer conn.Close()

	ds, err := hpnn.GenerateDataset(hpnn.DatasetConfig{
		Name: "fashion", TrainN: 1, TestN: 4, H: 16, W: 16, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	feat := 16 * 16
	sample := func(i int) *hpnn.Tensor {
		return &hpnn.Tensor{Shape: []int{1, 16, 16}, Data: ds.TestX.Data[i*feat : (i+1)*feat]}
	}
	ask := func(model string, i int) int {
		t.Helper()
		if err := hpnn.EncodeServeRequestTo(conn, model, sample(i)); err != nil {
			t.Fatal(err)
		}
		class, err := hpnn.DecodeServeResponse(conn)
		if err != nil {
			t.Fatalf("model %q sample %d: %v", model, i, err)
		}
		if class < 0 || class >= 10 {
			t.Fatalf("model %q sample %d: class %d out of range", model, i, class)
		}
		return class
	}
	// v2 frames route per model; all three tenants answer on one connection.
	for _, model := range []string{"alpha", "beta", "gamma"} {
		for i := 0; i < 4; i++ {
			ask(model, i)
		}
	}
	// A v1 frame (no model ID) routes to the default tenant and must agree
	// with an explicit v2 request to it.
	if err := hpnn.EncodeServeRequest(conn, sample(0)); err != nil {
		t.Fatal(err)
	}
	v1Class, err := hpnn.DecodeServeResponse(conn)
	if err != nil {
		t.Fatal(err)
	}
	if got := ask("alpha", 0); got != v1Class {
		t.Fatalf("v1 default routing answered %d, explicit alpha answered %d", v1Class, got)
	}
	// Unknown models fail in-band; the connection survives.
	if err := hpnn.EncodeServeRequestTo(conn, "ghost", sample(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := hpnn.DecodeServeResponse(conn); err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("unknown model answered with %v, want in-band unknown-model error", err)
	}
	ask("alpha", 1)

	// Re-publish alpha with beta's weights: the watch loop must hot-swap it.
	zoo("-publish", "alpha", "-model", filepath.Join(dir, "b.hpnn"))
	swapped := false
	for i := 0; i < 150; i++ {
		if strings.Contains(output.String(), `hot-swapped model "alpha"`) {
			swapped = true
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if !swapped {
		t.Fatalf("server never hot-swapped the re-published model\n%s", output.String())
	}
	ask("alpha", 2) // the swapped tenant keeps serving

	// Drain and check the registry report.
	if err := srv.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Wait() }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("serve did not exit on SIGINT\n%s", output.String())
	}
	got := output.String()
	for _, want := range []string{
		"serving 3 model(s)", "trusted device", "commodity accelerator",
		"model alpha", "model beta", "model gamma",
		"registry:", "1 hot-swaps", "locked outputs",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("zoo-serve report missing %q:\n%s", want, got)
		}
	}
}
