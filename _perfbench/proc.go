package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one running hpnn-serve process.
type server struct {
	cmd  *exec.Cmd
	addr string

	mu     sync.Mutex
	lines  []string // stdout after the listening banner
	copied chan struct{}
}

var bannerRe = regexp.MustCompile(`^serving \d+ model\(s\) on (\S+):`)

// startServer launches the hpnn-serve binary on an ephemeral loopback port
// and returns once it prints its listening banner. The child is killed if
// the benchmark dies first.
func startServer(bin string, args ...string) (*server, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, copied: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.copied)
		sc := bufio.NewScanner(out)
		found := false
		for sc.Scan() {
			line := sc.Text()
			if m := bannerRe.FindStringSubmatch(line); m != nil && !found {
				found = true
				addr <- m[1]
				continue
			}
			s.mu.Lock()
			s.lines = append(s.lines, line)
			s.mu.Unlock()
		}
		_, _ = io.Copy(io.Discard, out)
	}()
	select {
	case a := <-addr:
		s.addr = a
		return s, nil
	case <-s.copied:
		_ = cmd.Wait()
		return nil, fmt.Errorf("hpnn-serve exited before listening")
	case <-time.After(30 * time.Second):
		_ = cmd.Process.Kill()
		<-s.copied
		_ = cmd.Wait()
		return nil, fmt.Errorf("hpnn-serve did not start listening within 30s")
	}
}

// stop sends SIGTERM, waits for the drain and exit (killing after 20s),
// and returns the shutdown report lines.
func (s *server) stop() ([]string, error) {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() {
		<-s.copied
		done <- s.cmd.Wait()
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
		err = fmt.Errorf("hpnn-serve did not drain within 20s")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.lines...), err
}

// report is what hpnn-serve's shutdown report says about a run.
type report struct {
	completed, errors, shed, batches    int
	compiles, evictions, swaps, reroute int
}

var (
	servedRe   = regexp.MustCompile(`served (\d+) requests \((\d+) errors, \d+ canceled, (\d+) shed\) in (\d+) batches`)
	registryRe = regexp.MustCompile(`^registry: (\d+) compiles, (\d+) evictions, (\d+) hot-swaps, (\d+) reroutes`)
)

func parseReport(lines []string) report {
	var r report
	atoi := func(s string) int { v, _ := strconv.Atoi(s); return v }
	for _, l := range lines {
		l = strings.TrimSpace(l)
		if m := servedRe.FindStringSubmatch(l); m != nil {
			r.completed += atoi(m[1])
			r.errors += atoi(m[2])
			r.shed += atoi(m[3])
			r.batches += atoi(m[4])
		}
		if m := registryRe.FindStringSubmatch(l); m != nil {
			r.compiles, r.evictions, r.swaps, r.reroute = atoi(m[1]), atoi(m[2]), atoi(m[3]), atoi(m[4])
		}
	}
	return r
}

func (r report) String() string {
	mean := 0.0
	if r.batches > 0 {
		mean = float64(r.completed) / float64(r.batches)
	}
	return fmt.Sprintf("server: %d served, %d errors, %d shed, %d batches (mean %.2f); %d compiles, %d evictions, %d swaps, %d reroutes",
		r.completed, r.errors, r.shed, r.batches, mean, r.compiles, r.evictions, r.swaps, r.reroute)
}
