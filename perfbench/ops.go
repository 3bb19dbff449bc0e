package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"net/url"
	"strconv"

	"github.com/memcentric/mcdla/internal/dse"
	"github.com/memcentric/mcdla/internal/report"
	"github.com/memcentric/mcdla/internal/train"
)

// op is one request of a workload's op list. The server only ever sees URL;
// the parsed fields exist so the traced run can replay the same op through
// the public functions the handler calls.
type op struct {
	URL string

	// Run ops (/v1/run).
	point  dse.Point
	format report.Format

	// Study ops: the route name (fig13, optimize, ...) and the CLI golden
	// fixture the text body must equal ("" when the op has none).
	route  string
	query  url.Values
	golden string
}

// runNets are the /v1/run network axis: the Table III networks whose cold
// request costs the same within a factor of two. RNN-GRU and the two
// transformers cost three to ten times more per request; mixed in, they set
// the tail percentiles on their own, so they are measured by the study
// routes instead.
var runNets = []string{"AlexNet", "GoogLeNet", "VGG-E", "ResNet", "RNN-GEMV", "RNN-LSTM-1", "RNN-LSTM-2"}

var (
	runDesigns   = []string{"DC-DLA", "HC-DLA", "MC-DLA(S)", "MC-DLA(L)", "MC-DLA(B)", "DC-DLA(O)"}
	runLinks     = []int{0, 4, 8, 12}
	runGBps      = []float64{0, 25, 50, 100}
	runMemNodes  = []int{0, 2, 4, 8}
	runFormats   = []report.Format{report.FormatJSON, report.FormatText, report.FormatCSV, report.FormatMarkdown}
	runBatchStep = 32
	runBatches   = 31 // 64, 96, ..., 1024
)

// runOps draws perStratum design points from every (network, strategy,
// precision) stratum. Designs are dealt to the points in turn, and the k-th
// point of a stratum answers in formats[k%len(formats)], so every seed yields
// the same mix of networks, designs and formats; the seed picks the batches,
// the link, memory-node and cDMA axes, and the order. Within a list no two
// points share a training schedule (workload, strategy, batch, precision),
// so each op builds its own graph and schedule when it misses the memo.
func runOps(seed uint64, stream uint64, perStratum int, formats []report.Format) []op {
	rng := rand.New(rand.NewPCG(seed, stream))
	var ops []op
	for _, net := range runNets {
		for _, s := range []train.Strategy{train.DataParallel, train.ModelParallel} {
			for _, prec := range train.Precisions() {
				for k, b := range rng.Perm(runBatches)[:perStratum] {
					p := dse.Point{
						Design:   runDesigns[len(ops)%len(runDesigns)],
						Workload: net, Strategy: s, Precision: prec,
						Batch:    64 + b*runBatchStep,
						LinkGBps: runGBps[rng.IntN(len(runGBps))],
					}
					switch p.Design {
					case "MC-DLA(S)", "MC-DLA(L)", "MC-DLA(B)":
						// The memory-centric ring builders take Table II's
						// six links only; another count panics in topo, so
						// the axis stays off.
						p.MemNodes = runMemNodes[rng.IntN(len(runMemNodes))]
					case "DC-DLA", "HC-DLA":
						p.Links = runLinks[rng.IntN(len(runLinks))]
						p.Compress = rng.IntN(2) == 1
					default:
						p.Links = runLinks[rng.IntN(len(runLinks))]
					}
					f := formats[k%len(formats)]
					ops = append(ops, op{URL: runURL(p, f), point: p, format: f})
				}
			}
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// runURL spells a design point as /v1/run query parameters; zero axes are
// left out so the server applies its defaults.
func runURL(p dse.Point, f report.Format) string {
	q := url.Values{}
	q.Set("net", p.Workload)
	q.Set("design", p.Design)
	q.Set("strategy", p.Strategy.String())
	q.Set("batch", strconv.Itoa(p.Batch))
	q.Set("precision", p.Precision.String())
	if p.SeqLen > 0 {
		q.Set("seqlen", strconv.Itoa(p.SeqLen))
	}
	if p.Links > 0 {
		q.Set("links", strconv.Itoa(p.Links))
	}
	if p.LinkGBps > 0 {
		q.Set("gbps", strconv.FormatFloat(p.LinkGBps, 'g', -1, 64))
	}
	if p.MemNodes > 0 {
		q.Set("memnodes", strconv.Itoa(p.MemNodes))
	}
	if p.Compress {
		q.Set("compress", "true")
	}
	if f != report.FormatJSON {
		q.Set("format", string(f))
	}
	return "/v1/run?" + q.Encode()
}

// studyRoutes is the studies-cold cycle: every study route of the service,
// each with the parameters of its CLI golden fixture where one exists, so a
// text body can be checked against cmd/mcdla/testdata.
var studyRoutes = []struct {
	route, query, golden string
}{
	{"fig2", "", "fig2"},
	{"fig11", "strategy=dp", "fig11_dp"},
	{"fig12", "", "fig12"},
	{"fig13", "strategy=dp", "fig13_dp"},
	{"fig13", "strategy=mp", "fig13_mp"},
	{"fig14", "", "fig14"},
	{"headline", "", "headline"},
	{"sens", "", "sens"},
	{"scale", "", "scale"},
	{"transformer", "seqlens=128,256", "transformer"},
	{"plane", "nodes=1,2&compare=true", "plane_compare"},
	{"plane", "workload=BERT-Large&nodes=1,2", "plane_bert"},
	{"plane", "workload=GPT-2&nodes=1,2", ""},
	{"explore", "", "explore"},
	{"optimize", "", "optimize"},
	{"optimize", "search=greedy&objective=perf-per-watt&max-power=4300", "optimize_greedy"},
	{"optimize", "surrogate=1", "optimize_surrogate"},
	{"fleet", "", "fleet_default"},
	{"fleet", "jobs=20&pods=1&designs=DC-DLA,MC-DLA(B)", "fleet_synthetic"},
}

// studyOps returns the study cycle in a seed-chosen order, every op in the
// text format of the CLI user.
func studyOps(seed uint64) []op {
	rng := rand.New(rand.NewPCG(seed, streamStudies))
	ops := make([]op, len(studyRoutes))
	for i, j := range rng.Perm(len(studyRoutes)) {
		r := studyRoutes[j]
		q, err := url.ParseQuery(r.query)
		if err != nil {
			panic(err) // the table above is static
		}
		q.Set("format", string(report.FormatText))
		ops[i] = op{URL: "/v1/" + r.route + "?" + q.Encode(), route: r.route, query: q, golden: r.golden}
	}
	return ops
}

// Seed streams keep the workloads' op lists independent of each other. The
// values are part of the op lists that TestOpLists pins.
const (
	streamMemo    uint64 = 2
	streamStore   uint64 = 3
	streamStudies uint64 = 4
)

// opListDigest fingerprints an op list (its URLs in order).
func opListDigest(ops []op) string {
	h := sha256.New()
	for _, o := range ops {
		fmt.Fprintln(h, o.URL)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
