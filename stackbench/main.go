// Command stackbench benchmarks the qservd accelerator service end to
// end. It starts the daemon several times to time its start-up, drives
// the last instance over HTTP with a closed loop of clients sending a
// traffic mix generated from -seed, checks every result, and prints one
// JSON line: client latency, throughput and set-up time, or with -trace 1
// the per-layer ledger read back from the service's job traces and
// metrics.
//
// run.sh builds qservd from the checkout and runs this command; call it
// from the repository root:
//
//	bash stackbench/run.sh --workload hot --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

const (
	// setupBoots is how many times a run starts qservd; setup_s is the
	// median start-up time.
	setupBoots = 21
	// warmup is the unmeasured closed-loop phase before the window: it
	// grows the heaps and connection pools to their steady size.
	warmup = time.Second
	// tracedJobs bounds the jobs whose traces form the ledger; it stays
	// below qservd's default ring of 1024 retained traces.
	tracedJobs = 1000
	// slice is the part of the window the latency percentiles and the
	// throughput are taken over before their median over slices. A window
	// that is not a whole number of slices ends in a shorter one.
	slice = 3 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "hot", "traffic mix: hot, cold or sessions")
	seed := flag.Int64("seed", 1, "seed the traffic is generated from")
	seconds := flag.Int("seconds", 30, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 reports the per-layer ledger instead of the end-to-end metrics")
	bin := flag.String("qservd", ".bench_build/qservd", "qservd binary to benchmark")
	flag.Parse()
	// One thread runs the load generator, so that it never holds both
	// CPUs of a small machine away from the daemon it measures.
	runtime.GOMAXPROCS(1)
	rep, err := bench(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *bin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stackbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stackbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func bench(name string, seed int64, window time.Duration, traced bool, bin string) (*report, error) {
	mk, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want hot, cold or sessions)", name)
	}
	if window <= 0 {
		return nil, fmt.Errorf("measured window %v must be positive", window)
	}
	wl := mk(seed)

	var srv *server
	boots := make([]float64, setupBoots)
	for i := range boots {
		s, d, err := startServer(bin)
		if err != nil {
			return nil, err
		}
		boots[i] = d.Seconds()
		if i == len(boots)-1 {
			srv = s
		} else if err := s.stop(); err != nil {
			return nil, fmt.Errorf("qservd shutdown: %w", err)
		}
	}
	defer srv.stop()

	c := newClient(srv.addr)
	defer c.hc.CloseIdleConnections()
	if err := wl.prepare(c); err != nil {
		return nil, fmt.Errorf("prepare %s: %w", name, err)
	}
	if warm := load(c, wl, seed, 0, warmup); warm.failed+warm.wrong > 0 {
		return nil, fmt.Errorf("warm-up: %d failed, %d wrong: %v", warm.failed, warm.wrong, warm.errs)
	}
	var before map[string]float64
	if traced {
		var err error
		if before, err = scrape(c); err != nil {
			return nil, err
		}
	}
	out := load(c, wl, seed, 1, window)
	for _, err := range out.errs {
		fmt.Fprintln(os.Stderr, "stackbench:", err)
	}
	if len(out.samples) == 0 {
		return nil, fmt.Errorf("no request of %d succeeded", out.attempted)
	}
	rep := &report{Correct: out.wrong == 0, Attempted: out.attempted, Failed: out.failed}
	if traced {
		after, err := scrape(c)
		if err != nil {
			return nil, err
		}
		if rep.Metrics, err = ledger(c, out.samples, tracedJobs); err != nil {
			return nil, err
		}
		for k, v := range cacheMetrics(before, after) {
			rep.Metrics[k] = v
		}
		rep.Metrics["jobs_completed"] = metric{float64(len(out.samples)), "count"}
	} else {
		rep.Metrics = endToEnd(out, boots)
	}
	if err := srv.stop(); err != nil {
		return nil, fmt.Errorf("qservd shutdown: %w", err)
	}
	fmt.Fprintf(os.Stderr, "stackbench: %s seed %d: %d attempted, %d failed, %d wrong; %v\n",
		name, seed, out.attempted, out.failed, out.wrong, rep.Metrics)
	return rep, nil
}

// endToEnd reports what a client of the service sees: the median and
// 90th-percentile latency from sending a request to holding its result,
// completed jobs per second, and the median daemon start-up time. The
// latencies and the throughput are taken over the requests that finished
// in each slice of the window and reported as their median over the
// slices, so that a stretch in which other processes hold the CPUs moves
// them little. Requests still in flight at the deadline are left out. A
// slice holds a thousand requests or more, so the 90th percentile has a
// hundred samples beyond it; it is the highest percentile that stayed
// steady from run to run on a shared two-CPU machine.
func endToEnd(out outcome, boots []float64) map[string]metric {
	ms := func(s []sample) []float64 {
		lat := make([]float64, len(s))
		for i, x := range s {
			lat[i] = float64(x.total.Nanoseconds()) / 1e6
		}
		return lat
	}
	bySlice := make([][]sample, (out.window+slice-1)/slice)
	for _, s := range out.samples {
		if at := s.end.Sub(out.start); at < out.window {
			bySlice[at/slice] = append(bySlice[at/slice], s)
		}
	}
	var p50s, p90s, rates []float64
	for k, s := range bySlice {
		span := min(slice, out.window-time.Duration(k)*slice)
		rates = append(rates, float64(len(s))/span.Seconds())
		if len(s) > 0 {
			p50s = append(p50s, quantile(ms(s), 0.5))
			p90s = append(p90s, quantile(ms(s), 0.9))
		}
	}
	return map[string]metric{
		"latency_p50_ms":    {quantile(p50s, 0.5), "ms"},
		"latency_p90_ms":    {quantile(p90s, 0.5), "ms"},
		"throughput_jobs_s": {quantile(rates, 0.5), "1/s"},
		"setup_s":           {quantile(boots, 0.5), "s"},
	}
}

// quantile interpolates the q-quantile of xs linearly between order
// statistics; xs must be non-empty.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
