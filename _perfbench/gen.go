package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hpnn/internal/serve"
	"hpnn/internal/tensor"
)

// conns is the number of client connections (and sender threads) the
// generator uses: the box's CPU count.
const conns = 2

// frames pre-encodes every (tenant, sample) request frame before timing,
// so the generator only writes bytes. model "" selects v1 frames (single-
// model mode); otherwise v2 frames carry the tenant's model ID.
func frames(ts []*tenant, x *tensor.Tensor, v2 bool) ([][][]byte, error) {
	n := x.Shape[0]
	feat := x.Len() / n
	out := make([][][]byte, len(ts))
	for ti, t := range ts {
		out[ti] = make([][]byte, n)
		for i := 0; i < n; i++ {
			s := tensor.FromSlice(x.Data[i*feat:(i+1)*feat], x.Shape[1:]...)
			var buf bytes.Buffer
			var err error
			if v2 {
				err = serve.EncodeRequestTo(&buf, t.name, s)
			} else {
				err = serve.EncodeRequest(&buf, s)
			}
			if err != nil {
				return nil, err
			}
			out[ti][i] = buf.Bytes()
		}
	}
	return out, nil
}

// outcome of one request.
const (
	outPending = iota
	outOK
	outWrong // answered with a class no published version gives
	outError // error or retry response, or a broken connection
	outLost  // no response before the drain deadline
)

// phase is the record of one open-loop phase: per request, when it was
// due and answered (offsets from the phase start), how late the generator
// itself sent it, and how it ended.
type phase struct {
	arr  []arrival
	late []time.Duration
	done []time.Duration
	out  []int
	dur  time.Duration
}

// sleepUntil blocks until t. Go's timers round sub-millisecond sleeps up to
// about a millisecond when the runtime is otherwise idle (the poller waits
// in whole milliseconds), so the generator sleeps in the kernel instead:
// nanosleep wakes within the timer slack (~50µs) and occupies only this
// goroutine's thread.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop re-checks the clock
	}
}

// dial opens the generator's connections to addr.
func dial(addr string) ([]net.Conn, error) {
	cs := make([]net.Conn, conns)
	for c := range cs {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			for _, o := range cs[:c] {
				o.Close()
			}
			return nil, err
		}
		cs[c] = conn
	}
	return cs, nil
}

// runOpen drives one open-loop phase against addr: arrivals are spread
// round-robin over the connections, each with one sender that writes its
// requests at their due times regardless of answers, and one reader that
// matches the in-order responses. Requests unanswered drain after the last
// due time count as lost. check decides whether an answer is correct.
func runOpen(addr string, arr []arrival, fr [][][]byte, dur, drain time.Duration, check func(a arrival, class int) bool) (*phase, error) {
	p := &phase{
		arr: arr, dur: dur,
		late: make([]time.Duration, len(arr)),
		done: make([]time.Duration, len(arr)),
		out:  make([]int, len(arr)),
	}
	cs, err := dial(addr)
	if err != nil {
		return nil, err
	}
	start := time.Now().Add(2 * time.Millisecond)
	deadline := start.Add(dur + drain)
	var wg sync.WaitGroup
	for c, conn := range cs {
		mine := make([]int, 0, len(arr)/conns+1)
		for i := c; i < len(arr); i += conns {
			mine = append(mine, i)
		}
		// Sized to the number of sends, so the sender never blocks on it.
		fifo := make(chan int, len(mine))
		wg.Add(2)
		go func(conn net.Conn) {
			defer wg.Done()
			defer close(fifo)
			// A write that blocks because the server stopped reading delays
			// the next send; that is the server's backlog, already counted
			// in latency from the due time, so the generator's own lateness
			// is measured from when it was free to send.
			var free time.Duration
			for _, i := range mine {
				a := arr[i]
				sleepUntil(start.Add(a.due))
				p.late[i] = time.Since(start) - max(a.due, free)
				_, err := conn.Write(fr[a.tenant][a.sample])
				free = time.Since(start)
				if err != nil {
					p.out[i] = outError
					continue
				}
				fifo <- i
			}
		}(conn)
		go func(conn net.Conn) {
			defer wg.Done()
			_ = conn.SetReadDeadline(deadline) // a failure shows up as lost requests
			br := bufio.NewReader(conn)
			broken := false
			for i := range fifo {
				if broken {
					p.out[i] = outLost
					continue
				}
				class, err := serve.DecodeResponse(br)
				p.done[i] = time.Since(start)
				switch {
				case err != nil:
					if ne, ok := err.(net.Error); ok && ne.Timeout() {
						p.out[i] = outLost
						broken = true
					} else if _, isOp := err.(*net.OpError); isOp {
						p.out[i] = outError
						broken = true
					} else {
						p.out[i] = outError
					}
				case check(arr[i], class):
					p.out[i] = outOK
				default:
					p.out[i] = outWrong
				}
			}
		}(conn)
	}
	wg.Wait()
	for _, conn := range cs {
		conn.Close()
	}
	return p, nil
}

// runSaturated keeps depth requests in flight on each connection until dur
// has passed, taking requests from arr in order (their due times are
// ignored), and checks every answer. The phase lasts until the last
// answer, so its rate is the answer rate the server sustained.
func runSaturated(addr string, arr []arrival, fr [][][]byte, depth int, dur, drain time.Duration, check func(a arrival, class int) bool) (*phase, error) {
	p := &phase{
		late: make([]time.Duration, len(arr)),
		done: make([]time.Duration, len(arr)),
		out:  make([]int, len(arr)),
	}
	cs, err := dial(addr)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	end := start.Add(dur)
	var next atomic.Int64 // the next request of arr to send
	var wg sync.WaitGroup
	for _, conn := range cs {
		tokens := make(chan struct{}, depth)
		fifo := make(chan int, len(arr))
		_ = conn.SetDeadline(end.Add(drain)) // a failure shows up as lost requests
		wg.Add(2)
		go func(conn net.Conn) {
			defer wg.Done()
			defer close(fifo)
			for time.Now().Before(end) {
				tokens <- struct{}{}
				i := int(next.Add(1) - 1)
				if i >= len(arr) {
					return
				}
				a := arr[i]
				if _, err := conn.Write(fr[a.tenant][a.sample]); err != nil {
					p.out[i] = outError
					<-tokens
					return
				}
				fifo <- i
			}
		}(conn)
		go func(conn net.Conn) {
			defer wg.Done()
			br := bufio.NewReader(conn)
			broken := false
			for i := range fifo {
				if broken {
					p.out[i] = outLost
					<-tokens
					continue
				}
				class, err := serve.DecodeResponse(br)
				p.done[i] = time.Since(start)
				<-tokens
				switch {
				case err != nil:
					p.out[i] = outError
					_, broken = err.(net.Error)
				case check(arr[i], class):
					p.out[i] = outOK
				default:
					p.out[i] = outWrong
				}
			}
		}(conn)
	}
	wg.Wait()
	for _, conn := range cs {
		conn.Close()
	}
	p.arr = arr[:min(int(next.Load()), len(arr))]
	for _, d := range p.done[:len(p.arr)] {
		p.dur = max(p.dur, d)
	}
	return p, nil
}

// summary is the digest of one phase.
type summary struct {
	n, ok, wrong, errs, lost int
	// latencies in ms, from due time to answer, of answered requests.
	p50, p90, p99, max float64
	// generator lateness in ms: send time minus the later of the due time
	// and the end of the connection's previous write.
	lateP50, lateP90, lateMax float64
	// achieved answer rate over the phase (answers / scheduled duration).
	rate float64
	// hist is the latency distribution in doubling buckets from 0.25 ms.
	hist *logHist
}

func (p *phase) summarize() summary {
	s := summary{n: len(p.arr), hist: newLogHist(0.25, 2, 10)}
	var lat, late []float64
	for i, a := range p.arr {
		late = append(late, ms(p.late[i]))
		switch p.out[i] {
		case outOK:
			s.ok++
			lat = append(lat, ms(p.done[i]-a.due))
			s.hist.add(lat[len(lat)-1])
		case outWrong:
			s.wrong++
		case outError:
			s.errs++
		default:
			s.lost++
		}
	}
	sl, sg := sortedCopy(lat), sortedCopy(late)
	s.p50, s.p90, s.p99 = percentile(sl, 0.5), percentile(sl, 0.9), percentile(sl, 0.99)
	s.max = percentile(sl, 1)
	s.lateP50, s.lateP90, s.lateMax = percentile(sg, 0.5), percentile(sg, 0.9), percentile(sg, 1)
	s.rate = float64(s.ok) / p.dur.Seconds()
	return s
}

func (s summary) failed() int { return s.wrong + s.errs + s.lost }

func (s summary) String() string {
	return fmt.Sprintf("attempted %d ok %d failed %d (wrong %d, error %d, lost %d)  lat ms p50 %.3f p90 %.3f p99 %.3f max %.3f  late ms p50 %.3f p90 %.3f max %.3f  rate %.1f/s  hist(0.25ms×2^i) %v",
		s.n, s.ok, s.failed(), s.wrong, s.errs, s.lost, s.p50, s.p90, s.p99, s.max, s.lateP50, s.lateP90, s.lateMax, s.rate, s.hist.counts)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
