// Command perfbench is the repository's benchmark: closed-loop workloads
// against an in-process `mcdla serve` handler, timed end to end over
// loopback HTTP, with every response checked. See README.md for the
// workloads, the metrics and the steadiness record.
//
// Run it from the root of a checkout:
//
//	bash perfbench/run.sh --workload run-memo --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer ledger with --trace 1.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// rounds is how many times an untraced run builds its set-up from scratch.
// Each set-up is followed by an equal share of the timed passes, so the
// set-ups, like the ops, sample the host at moments spread over the run.
const rounds = 5

// minPasses is the fewest timed passes a round makes, whatever --seconds says.
const minPasses = 2

// deadline stops adding passes once the process has run this long, so a
// slow host still exits well inside the three-minute limit.
const deadline = 150 * time.Second

// passesFor is the number of timed passes that fill d on the host of the
// steadiness record. It depends on the workload and --seconds only, never
// on how fast the code under test runs.
func passesFor(w *workload, d time.Duration) int {
	return max(minPasses, int(math.Ceil(float64(d)/float64(w.passTime))))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: run-memo, run-store or studies-cold")
	seed := flag.Uint64("seed", 1, "seed of the op list")
	seconds := flag.Float64("seconds", 25, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer ledger")
	flag.Parse()
	// One core: client, server, engine and GC share it, so the figures do
	// not depend on what else the host runs on its other cores.
	runtime.GOMAXPROCS(1)
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, traced bool) error {
	w, ok := workloads(seed)[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	root, err := os.MkdirTemp(".bench_build", "perfbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	start := time.Now()
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	b, err := newBench(w, root, tr)
	if err != nil {
		return err
	}
	defer b.close()
	budget := time.Duration(seconds * float64(time.Second))
	fmt.Printf("workload %s: %d ops per pass, op list %s, seed %d\n", w.name, len(w.ops), opListDigest(w.ops), seed)

	if !traced {
		n := passesFor(w, budget/rounds)
		fmt.Printf("%d rounds of %d timed passes\n", rounds, n)
		var setups []float64
		var passes []passStats
		var refs string
		for r := range rounds {
			t := time.Now()
			if err := b.setup(); err != nil {
				return fmt.Errorf("setup: %w", err)
			}
			setups = append(setups, time.Since(t).Seconds())
			// Every set-up simulates the same URLs cold: same job, same bytes.
			if d := responseDigest(b.ref); r == 0 {
				refs = d
			} else if d != refs {
				return fmt.Errorf("set-up %d recorded other responses than set-up 1", r+1)
			}
			passes = append(passes, b.measure(n, passTimed, start)...)
		}
		busy := make([]float64, len(passes))
		for i, ps := range passes {
			busy[i] = ms(ps.busy)
		}
		fmt.Printf("op time per pass: median %.1f ms, calibrated %.1f ms\n", median(busy), ms(w.passTime))
		res := summarize(passes)
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		return b.finish(res, passes)
	}

	// Traced run: one set-up, an untraced half, then a traced half of as
	// many passes over the same list.
	if err := b.setup(); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	n := passesFor(w, budget/2)
	plain := b.measure(n, passTimed, start)
	withTrace := b.measure(n, passTraced, start)
	all := append(slices.Clone(plain), withTrace...)
	res := summarize(all)
	res.Metrics = tr.ledger(plain, withTrace)
	res.Failed += tr.failed
	res.Correct = res.Failed == 0
	if tr.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", tr.firstErr)
	}
	tr.printTable(os.Stdout, w.name, res.Metrics)
	spans := filepath.Join(".bench_build", fmt.Sprintf("perfbench-spans-%s-seed%d.json", w.name, seed))
	if err := tr.writeSpans(spans); err != nil {
		return err
	}
	fmt.Println("spans written to", spans)
	return b.finish(res, all)
}

// measure runs n whole passes, fewer only if the run passes its deadline.
func (b *bench) measure(n int, mode passMode, start time.Time) []passStats {
	var passes []passStats
	for len(passes) < n {
		if len(passes) >= minPasses && time.Since(start) > deadline {
			fmt.Fprintf(os.Stderr, "perfbench: deadline: %d of %d passes\n", len(passes), n)
			break
		}
		passes = append(passes, b.pass(mode))
	}
	return passes
}

// finish prints the response digest, the first failure if any, and the
// result line.
func (b *bench) finish(res result, passes []passStats) error {
	for _, ps := range passes {
		if ps.firstErr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: first failure:", ps.firstErr)
			break
		}
	}
	fmt.Printf("response digest %s over %d bodies\n", responseDigest(b.ref), len(b.ref))
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// blockTime is the op time of one block: consecutive passes are grouped
// into blocks of at least blockTime, each holding several GC cycles, for the
// CPU and allocation figures.
const blockTime = 250 * time.Millisecond

// summarize turns timed passes into the end-to-end metrics.
//
// The host runs memory-heavy code up to 1.6 times slower while another
// tenant shares its core, in phases of seconds (README.md, "Noise"). Every
// pass visits every op, so each op is timed at many moments of the run, and
// its latency is its fastest pass: the uncontended cost. The latency
// percentiles are taken over the op list, and ops_per_s is the closed
// loop's rate at those latencies. A fastest pass leaves out intermittent
// costs, GC pauses among them; cpu_ms_per_op is the fastest block's, and a
// block holds several GC cycles, so it is the metric that carries them.
func summarize(passes []passStats) result {
	var res result
	lat := fastest(passes)
	rate := loopRate(lat)
	slices.Sort(lat)

	var cpus, allocs []float64
	var blk passStats
	for i, ps := range passes {
		res.Attempted += ps.ops
		res.Failed += ps.failed
		blk.ops += ps.ops
		blk.busy += ps.busy
		blk.cpu += ps.cpu
		blk.alloc += ps.alloc
		// A short remainder joins the last block.
		if i == len(passes)-1 || (blk.busy >= blockTime && !short(passes[i+1:])) {
			cpus = append(cpus, ms(blk.cpu)/float64(blk.ops))
			allocs = append(allocs, float64(blk.alloc)/1024/float64(blk.ops))
			blk = passStats{}
		}
	}
	res.Correct = res.Failed == 0
	res.Metrics = map[string]metric{
		"ops_per_s":       {rate, "1/s"},
		"latency_p50_ms":  {quantile(lat, 0.5), "ms"},
		"latency_p90_ms":  {quantile(lat, 0.9), "ms"},
		"peak_rss_mb":     {peakRSSMB(), "MB"},
		"alloc_kb_per_op": {median(allocs), "KB"},
		"cpu_ms_per_op":   {slices.Min(cpus), "ms"},
	}
	return res
}

// fastest returns each op's fastest latency over the passes, in ms, in op
// order.
func fastest(passes []passStats) []float64 {
	lat := make([]float64, len(passes[0].lat))
	for i := range lat {
		lat[i] = math.Inf(1)
		for _, ps := range passes {
			lat[i] = min(lat[i], ms(ps.lat[i]))
		}
	}
	return lat
}

// loopRate is the closed loop's ops per second when its ops take lat ms.
func loopRate(lat []float64) float64 {
	var total float64
	for _, l := range lat {
		total += l
	}
	return div(float64(len(lat)), total/1000)
}

// short reports whether the remaining passes are too few to make a block.
func short(rest []passStats) bool {
	var busy time.Duration
	for _, ps := range rest {
		busy += ps.busy
	}
	return busy < blockTime
}

// responseDigest fingerprints one pass's response bodies in op order. Every
// checked pass reproduces the references byte for byte, so this is the
// digest of every pass of the run.
func responseDigest(bodies [][]byte) string {
	h := sha256.New()
	for _, b := range bodies {
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return quantile(s, 0.5)
}

// quantile interpolates linearly between the closest ranks of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}
