// Command servebench is the repository's serving benchmark. It starts
// in-process mcsd daemons (internal/server, and internal/shard for the
// sharded workload) on loopback ports, drives them with a closed loop
// of internal/client clients (two, one on sharded), checks every
// result against a direct engine.RunContext oracle, and prints the
// end-to-end metrics, or with -trace 1 the per-layer metrics of a
// separate traced run. The last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// Run it through run.sh, which builds it from the checkout:
//
//	bash _servebench/run.sh --workload warm --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "warm, cold or sharded")
	seed := flag.Int64("seed", 1, "request seed: pass order, cold limits and client jitter")
	seconds := flag.Int("seconds", 10, "measured seconds per timed run")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	flag.Parse()
	sp, ok := specs[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "servebench: need -workload warm|cold|sharded, -seconds >= 1, -trace 0|1\n")
		os.Exit(2)
	}
	if err := selfTest(); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	out, err := run(sp, *workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// bench is one workload's live state across setup, runs and replay.
type bench struct {
	sp     spec
	name   string
	seed   int64
	shapes []*shape
	topo   *topology
	// warmup is the obs delta of the last setup's warm-up pass.
	warmup obs.Report
}

func run(sp spec, name string, seed int64, d time.Duration, traced bool) (*output, error) {
	// mcsd turns obs on unconditionally; so do its in-process stand-ins.
	obs.Enable()
	b := &bench{sp: sp, name: name, seed: seed}
	setupS, err := b.setup()
	if err != nil {
		return nil, err
	}
	defer func() {
		if err := b.topo.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "servebench: stop:", err)
		}
	}()
	logf("setup_s %.2f (median of %d)", setupS, sp.setups)
	ctx := context.Background()
	if err := computeOracles(ctx, b.shapes); err != nil {
		return nil, err
	}
	logf("oracles computed")
	heap0 := heapAfterGC()

	plain := &http.Transport{}
	defer plain.CloseIdleConnections()
	cls, err := newClients(sp.clients, b.topo.front.url, &http.Client{Transport: plain}, seed)
	if err != nil {
		return nil, err
	}
	l := newLoad(b.shapes, sp, cls, seed)
	samples, elapsed, err := l.run(ctx, d)
	if err != nil {
		return nil, err
	}
	heap1 := heapAfterGC()
	sum := summarize(samples, b.shapes, elapsed)
	b.report("untraced", sum)

	out := &output{Correct: sum.mismatches() == 0, Attempted: sum.attempted, Failed: sum.failed()}
	if !traced {
		out.Metrics = map[string]metric{
			"setup_s":                {setupS, "s"},
			"served_frac":            {1 - sum.failedFrac(), "frac"},
			"retained_kib_per_query": {(float64(heap1) - float64(heap0)) / 1024 / float64(sum.attempted), "KiB"},
		}
		if len(sum.latMS) == 0 {
			return nil, fmt.Errorf("no request of the run succeeded")
		}
		out.Metrics["latency_best_ms"] = metric{sum.bestMS(), "ms"}
		return out, nil
	}

	// The traced load starts from fresh daemons, as the untraced one
	// did, so it does not inherit the untraced load's retained jobs.
	if _, err := b.setupOnce(b.sp.setups); err != nil {
		return nil, err
	}
	tr, err := b.traced(ctx, l, d, sum)
	if err != nil {
		return nil, err
	}
	out.Attempted += tr.sum.attempted
	out.Failed += tr.sum.failed()
	out.Correct = out.Correct && tr.correct
	out.Metrics = tr.metrics
	return out, nil
}

// setup builds the workload sp.setups times over, keeps the last, and
// returns the median wall time.
func (b *bench) setup() (float64, error) {
	var times []float64
	for r := 0; r < b.sp.setups; r++ {
		t, err := b.setupOnce(r)
		if err != nil {
			return 0, err
		}
		times = append(times, t)
	}
	return median(times), nil
}

// setupOnce replaces any running topology with a fresh one — tables,
// daemons and warm-up pass — and returns its wall time in seconds.
// Oracles already computed carry over: the tables are the same data.
func (b *bench) setupOnce(rep int) (float64, error) {
	old := b.shapes
	if b.topo != nil {
		if err := b.topo.stop(); err != nil {
			return 0, err
		}
		b.topo, b.shapes = nil, nil
		runtime.GC()
	}
	t0 := time.Now()
	tables, err := genTables(b.sp)
	if err != nil {
		return 0, err
	}
	if b.shapes, err = buildShapes(b.sp, tables); err != nil {
		return 0, err
	}
	for i := range old {
		b.shapes[i].oracle = old[i].oracle
	}
	if b.topo, err = startTopology(tables, b.sp.shards); err != nil {
		return 0, err
	}
	t1 := time.Now()
	before := obs.Snapshot()
	if err := b.warmUp(rep); err != nil {
		return 0, err
	}
	b.warmup = delta(obs.Snapshot(), before)
	t := time.Since(t0).Seconds()
	logf("setup %d took %.2fs (warm-up %.2fs)", rep, t, time.Since(t1).Seconds())
	return t, nil
}

// warmUp sends every shape once so the plan caches (and, sharded, the
// coordinator's pins and the shards' caches) hold every plan the timed
// runs replay. A cold workload has nothing to warm: it only checks the
// daemon answers.
func (b *bench) warmUp(rep int) error {
	ctx := context.Background()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}
	if b.sp.cold {
		resp, err := hc.Get(b.topo.front.url + "/readyz")
		if err != nil {
			return fmt.Errorf("readyz: %w", err)
		}
		_, _ = io.Copy(io.Discard, resp.Body) // the status is what counts
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("readyz: status %d", resp.StatusCode)
		}
		return nil
	}
	cls, err := newClients(b.sp.clients, b.topo.front.url, hc, b.seed)
	if err != nil {
		return err
	}
	// The clients split the pass between them, as the timed runs do.
	var next atomic.Int64
	errs := make([]error, len(cls))
	var wg sync.WaitGroup
	for c, cl := range cls {
		wg.Add(1)
		go func(c int, cl *client.Client) {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(b.shapes); i = int(next.Add(1)) - 1 {
				req := b.shapes[i].req
				req.ID = fmt.Sprintf("setup%d.%s", rep, b.shapes[i].id)
				if _, err := cl.Query(ctx, req); err != nil {
					errs[c] = fmt.Errorf("warm-up %s: %w", b.shapes[i].id, err)
					return
				}
			}
		}(c, cl)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// report prints a run's sample counts and failure breakdown on the
// lines above the JSON result.
func (b *bench) report(label string, s summary) {
	fmt.Printf("%s %s: %d attempted, %d succeeded, %d failed (failed_frac %.4f) in %.2fs, qps %.3f\n",
		b.name, label, s.attempted, s.succeeded, s.failed(), s.failedFrac(), s.elapsed.Seconds(), s.qps())
	for _, l := range s.failureLines() {
		fmt.Printf("%s %s failures: %s\n", b.name, label, l)
	}
	for i, sh := range b.shapes {
		if xs := s.shapeLatMS[i]; len(xs) > 0 {
			fmt.Printf("%s %s: %s median %.3f ms, best %.3f ms over %d successes\n", b.name, label, sh.id, median(xs), slices.Min(xs), len(xs))
		}
	}
	for _, pct := range []int{50, 90} {
		if v, ok := percentile(s.latMS, pct); ok {
			fmt.Printf("%s %s: latency_p%d_ms %.3f over %d successes\n", b.name, label, pct, v, len(s.latMS))
		} else {
			fmt.Printf("%s %s: latency_p%d_ms not supported by %d successes\n", b.name, label, pct, len(s.latMS))
		}
	}
}

var start = time.Now()

// logf writes a progress line to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "servebench %6.2fs: %s\n", time.Since(start).Seconds(), fmt.Sprintf(format, args...))
}

// heapAfterGC is the live heap after a full collection.
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
