package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	facet "repro"
)

// envSeed fixes the simulated external resources (ontology, Wikipedia,
// WordNet, web index) at facetserve's default seed. The resources stand
// for fixed outside services; --seed varies only what users send: the
// corpus, the request mix and the document stream.
const envSeed = 42

// corpusChunks independent corpora of a profile make up every corpus a
// workload generates. The generator draws a corpus's few dominant
// entities from its seed, and with the profiles' topic skew those few
// weigh on the cost of everything built over the corpus: in a probe the
// CPU time per document of single 1000-document SNYT corpora differed
// by up to 15% between seeds, and over ten seeds the build of single
// 600-document MNYT corpora took 2.6 to 3.4 s. Ten independent draws per
// seed average that out, while every document is still a story of the
// profile.
const corpusChunks = 10

// generateCorpus returns n documents of the profile drawn from
// corpusChunks corpora with seeds derived from seed, interleaved so that
// any stretch of the result (a bootstrap, a stream) mixes all of them.
func generateCorpus(env *facet.Environment, profile string, n int, seed uint64) ([]facet.Document, error) {
	parts := make([][]facet.Document, corpusChunks)
	for j := range parts {
		size := n / corpusChunks
		if j < n%corpusChunks {
			size++
		}
		var err error
		if parts[j], err = env.GenerateNewsCorpus(profile, size, seed*corpusChunks+uint64(j)); err != nil {
			return nil, err
		}
	}
	docs := make([]facet.Document, 0, n)
	for i := 0; len(docs) < n; i++ {
		for _, part := range parts {
			if i < len(part) {
				docs = append(docs, part[i])
			}
		}
	}
	return docs, nil
}

// A run times its workload's set-up several times and reports the
// median as setup_s. The set-ups are spread over the run: before the
// timed phase it sets up until setupBefore has passed (at least once;
// the last of these is the system it measures), and after the output
// checks until setupAfter has passed (at least twice), tearing each of
// those down at once. A burst of load from another guest of a shared
// host during one stretch of the run then moves only some of the
// samples: set-ups made back to back before the timed phase
// (browse_read's three took ten seconds) all caught the same burst. A
// cheap set-up (batch_extract's takes about 0.25 s) is repeated until
// its median no longer rests on a few short samples.
const (
	setupBefore   = time.Second
	setupAfter    = 2 * time.Second
	maxSetupsEach = 12
)

func newEnv() (*facet.Environment, error) {
	return facet.NewSimulatedEnvironment(facet.EnvConfig{Seed: envSeed})
}

// repeatSetup builds set-ups until they add up to total (at least min,
// at most maxSetupsEach), appending each one's time in seconds to times.
// With keep it returns the last set-up and tears down the others;
// without, it tears down every one. The heap is collected before each
// set-up, so every one starts from the same state.
func repeatSetup[T any](times *[]float64, min int, total time.Duration, keep bool, build func() (T, error), teardown func(T)) (T, error) {
	var last T
	var spent time.Duration
	for i := 0; i < min || (spent < total && i < maxSetupsEach); i++ {
		if i > 0 && keep {
			teardown(last)
		}
		runtime.GC()
		start := time.Now()
		v, err := build()
		if err != nil {
			return last, err
		}
		took := time.Since(start)
		spent += took
		*times = append(*times, took.Seconds())
		if !keep {
			teardown(v)
		}
		last = v
	}
	return last, nil
}

// measured runs a workload around its set-ups: it sets up (see above),
// hands the system to measure, which runs the timed phase and the
// checks, tears the system down, records the run-wide figures and, in an
// untraced run, sets up again after the checks and reports setup_s. The
// heap is collected before measure starts, and the measured system is
// released before the later set-ups, so they start from a heap like the
// first ones'.
func measured[T any](cfg runConfig, build func() (T, error), teardown func(T), measure func(T, *outcome) error) (*outcome, error) {
	o := newOutcome()
	var times []float64
	sys, err := repeatSetup(&times, 1, setupBefore, true, build, teardown)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	before := readMem()
	err = measure(sys, o)
	teardown(sys)
	var zero T
	sys = zero
	if err != nil {
		return nil, err
	}
	if err := o.finish(before); err != nil {
		return nil, err
	}
	if !cfg.trace {
		if _, err := repeatSetup(&times, 2, setupAfter, false, build, teardown); err != nil {
			return nil, err
		}
		o.metrics["setup_s"] = median(times)
		o.noise["setups"] = float64(len(times))
	}
	return o, nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found in /proc/self/status")
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuTicks reads the machine-wide CPU tick counters from /proc/stat:
// the steal ticks (time the hypervisor ran something else on this
// machine's virtual CPUs) and the total. Zeros when unavailable.
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealMeter measures the share of machine CPU time stolen by the
// hypervisor over an interval: a noise counter that explains a slow run
// on a shared host.
type stealMeter struct{ steal, total uint64 }

func startSteal() stealMeter {
	s, t := cpuTicks()
	return stealMeter{s, t}
}

func (m stealMeter) share() float64 {
	s, t := cpuTicks()
	return ratio(float64(s-m.steal), float64(t-m.total))
}

// probeSink keeps the host probe's work from being optimised away.
var probeSink int

// hostProbe times five repetitions of a fixed piece of work like the
// system's own (map inserts over a working set larger than the caches,
// with the allocation that comes with them) and appends the times in ms
// to xs. A run probes before set-up and after its checks, outside the
// timed phase, and the noise line reports the median. On a shared host
// the machine's speed drifts by as much as a quarter within minutes even
// when the hypervisor steals no CPU time; a run that was slow because
// the host was slow then shows a slow probe.
func hostProbe(xs []float64) []float64 {
	for i := 0; i < 5; i++ {
		start := time.Now()
		m := map[uint64]uint64{}
		x := uint64(88172645463325252)
		for j := 0; j < 200000; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			m[x%500000] += x
		}
		probeSink += len(m)
		xs = append(xs, ms(time.Since(start)))
	}
	return xs
}

// memSample is a point-in-time read of the Go runtime's allocation and
// GC counters.
type memSample struct {
	alloc  uint64
	cycles uint32
}

func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSample{alloc: ms.TotalAlloc, cycles: ms.NumGC}
}

// finish records the run-wide figures every workload reports.
func (o *outcome) finish(before memSample) error {
	after := readMem()
	o.noise["gc_cycles"] = float64(after.cycles - before.cycles)
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	o.metrics["peak_rss_mb"] = rss
	return nil
}

// countingListener counts the connections a server accepts.
type countingListener struct {
	net.Listener
	accepted *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// server is one loopback HTTP listener hardened with facetserve's
// default http.Server timeouts.
type server struct {
	URL      string
	srv      *http.Server
	accepted atomic.Int64
	done     chan struct{}
}

// startServer listens on a fresh loopback port and serves h until stop.
func startServer(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		URL: "http://" + ln.Addr().String(),
		srv: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       30 * time.Second,
			WriteTimeout:      60 * time.Second,
			IdleTimeout:       120 * time.Second,
			MaxHeaderBytes:    1 << 20,
		},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(countingListener{ln, &s.accepted})
	}()
	return s, nil
}

// stop closes the listener and every connection and waits for Serve to
// return.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close()
	}
	<-s.done
}

// stopAll stops servers concurrently.
func stopAll(servers ...*server) {
	var wg sync.WaitGroup
	for _, s := range servers {
		if s == nil {
			continue
		}
		wg.Add(1)
		go func(s *server) {
			defer wg.Done()
			s.stop()
		}(s)
	}
	wg.Wait()
}

// logf writes a progress line to the run's log.
func (cfg runConfig) logf(format string, args ...any) {
	fmt.Fprintf(cfg.log, "perfbench: "+format+"\n", args...)
}
