package store

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/memcentric/mcdla/internal/core"
	"github.com/memcentric/mcdla/internal/runner"
	"github.com/memcentric/mcdla/internal/train"
	"github.com/memcentric/mcdla/internal/units"
)

func testJob() runner.Job {
	return runner.Job{
		Design:   core.StandardDesigns()[4], // MC-DLA(B)
		Workload: "VGG-E",
		Strategy: train.DataParallel,
		Batch:    512,
		Workers:  8,
	}
}

func testResult() core.Result {
	return core.Result{
		Design:        "MC-DLA(B)",
		Workload:      "VGG-E",
		Strategy:      train.DataParallel,
		IterationTime: units.Time(0.051141),
		Breakdown: core.Breakdown{
			Compute: units.Time(0.04),
			Sync:    units.Time(0.006),
			Virt:    units.Time(0.012),
		},
		VirtTraffic: 123456789,
		SyncTraffic: 987654,
		HostBytes:   0,
	}
}

// canonicalizeJSON is the reference canonicalization canonicalize must
// reproduce byte for byte: decode into generic values with literal numbers
// (json.Number), then marshal again, which sorts every object's keys. It is
// the encoding the store's hashes and entries were first defined by.
func canonicalizeJSON(raw []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var generic any
	if err := dec.Decode(&generic); err != nil {
		return nil, err
	}
	return json.Marshal(generic)
}

func open(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestResultRoundTrip(t *testing.T) {
	s := open(t)
	j, want := testJob(), testResult()
	if _, ok, _ := s.LoadResult(j); ok {
		t.Fatal("empty store reported a hit")
	}
	if err := s.SaveResult(j, want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.LoadResult(j)
	if !ok {
		t.Fatalf("stored entry missed: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the result:\ngot  %+v\nwant %+v", got, want)
	}
	// Saving again writes byte-identical content (canonical encoding +
	// deterministic results), so concurrent writers cannot corrupt entries.
	hash, data1, err := encodeEntry(j, want)
	if err != nil {
		t.Fatal(err)
	}
	_, data2, _ := encodeEntry(j, want)
	if string(data1) != string(data2) {
		t.Fatal("encoding the same entry twice produced different bytes")
	}
	onDisk, err := os.ReadFile(s.resultPath(hash))
	if err != nil {
		t.Fatal(err)
	}
	if string(onDisk) != string(data1) {
		t.Fatal("on-disk entry differs from the canonical encoding")
	}
}

// TestCorruptedEntryIsMiss covers the checksum contract: a flipped byte or a
// truncated file is detected and treated as a miss, never a wrong result or
// a panic.
func TestCorruptedEntryIsMiss(t *testing.T) {
	j, r := testJob(), testResult()
	hash, clean, err := encodeEntry(j, r)
	if err != nil {
		t.Fatal(err)
	}
	for name, corrupt := range map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"empty":     func(b []byte) []byte { return nil },
		"flipped byte in result": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			i := strings.Index(string(c), `"IterationTime":`) + len(`"IterationTime":`) + 1
			c[i] ^= 0x01
			return c
		},
		"garbage": func(b []byte) []byte { return []byte("not json at all") },
	} {
		t.Run(name, func(t *testing.T) {
			s := open(t)
			if err := s.SaveResult(j, r); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(s.resultPath(hash), corrupt(clean), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok, _ := s.LoadResult(j); ok {
				t.Fatal("corrupted entry was served as a hit")
			}
		})
	}
}

// TestVersionSkewIsMiss: entries written under another schema version are
// invisible, so a version bump invalidates cleanly instead of misreading.
func TestVersionSkewIsMiss(t *testing.T) {
	s := open(t)
	j, r := testJob(), testResult()
	if err := s.SaveResult(j, r); err != nil {
		t.Fatal(err)
	}
	hash, _ := JobHash(j)
	data, _ := os.ReadFile(s.resultPath(hash))
	var e resultEntry
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	e.Version = "mcdla-store-v0"
	skewed, _ := json.Marshal(e)
	if err := os.WriteFile(s.resultPath(hash), skewed, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.LoadResult(j); ok {
		t.Fatal("version-skewed entry was served as a hit")
	}
}

// reorderJSON re-emits a JSON document with every object's keys in
// reverse-sorted order — a maximally shuffled but semantically identical
// encoding, nested objects included.
func reorderJSON(t *testing.T, raw []byte) []byte {
	t.Helper()
	var generic any
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.UseNumber()
	if err := dec.Decode(&generic); err != nil {
		t.Fatal(err)
	}
	var emit func(v any) string
	emit = func(v any) string {
		switch x := v.(type) {
		case map[string]any:
			keys := make([]string, 0, len(x))
			for k := range x {
				keys = append(keys, k)
			}
			sort.Sort(sort.Reverse(sort.StringSlice(keys)))
			parts := make([]string, 0, len(keys))
			for _, k := range keys {
				kb, _ := json.Marshal(k)
				parts = append(parts, string(kb)+":"+emit(x[k]))
			}
			return "{" + strings.Join(parts, ",") + "}"
		case []any:
			parts := make([]string, 0, len(x))
			for _, e := range x {
				parts = append(parts, emit(e))
			}
			return "[" + strings.Join(parts, ",") + "]"
		default:
			b, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			return string(b)
		}
	}
	return []byte(emit(generic))
}

// TestHashStableAcrossFieldReordering pins the canonical-encoding property:
// the same job serialized with object keys in any order hashes identically.
func TestHashStableAcrossFieldReordering(t *testing.T) {
	j := testJob()
	want, err := JobHash(j)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(j)
	if err != nil {
		t.Fatal(err)
	}
	reordered := reorderJSON(t, raw)
	if string(reordered) == string(raw) {
		t.Fatal("reorderJSON did not change the encoding (test is vacuous)")
	}
	ref, err := canonicalizeJSON(reordered)
	if err != nil {
		t.Fatal(err)
	}
	canon, err := canonicalize([]byte(versionLine), reordered)
	if err != nil {
		t.Fatal(err)
	}
	if got := hashBytes(append([]byte(versionLine), ref...)); got != want {
		t.Fatalf("reordered document hashes to %s by the reference, canonical to %s", got, want)
	}
	if got := hashBytes(canon); got != want {
		t.Fatalf("reordered document hashes to %s, canonical to %s", got, want)
	}
}

// pinnedJobs are the jobs whose hashes TestJobHashPinned holds: every
// standard design, a model-parallel mixed-precision job, a transformer job
// with a sequence length, a tagged job and a workload string with invalid
// UTF-8.
func pinnedJobs() map[string]runner.Job {
	jobs := map[string]runner.Job{}
	for _, d := range core.StandardDesigns() {
		j := testJob()
		j.Design = d
		jobs[d.Name] = j
	}
	jobs["mp-mixed"] = runner.Job{
		Design: core.StandardDesigns()[4], Workload: "RNN-GRU",
		Strategy: train.ModelParallel, Batch: 512, Workers: 8, Precision: train.Mixed,
	}
	jobs["transformer-seqlen"] = runner.Job{
		Design: core.StandardDesigns()[4], Workload: "BERT-Large",
		Strategy: train.DataParallel, Batch: 64, Workers: 8, SeqLen: 256,
	}
	tagged := testJob()
	tagged.Tag = "sens-variant"
	jobs["tagged"] = tagged
	invalid := testJob()
	invalid.Workload = "VGG\xff-E\xc3"
	jobs["invalid-utf8"] = invalid
	return jobs
}

// TestJobHashPinned holds the store's on-disk compatibility: these hashes
// and the entry bytes in testdata were written by the generic decode and
// re-marshal encoding that canonicalize replaced, so every entry a store
// already holds stays a hit.
func TestJobHashPinned(t *testing.T) {
	want := map[string]string{
		"DC-DLA":             "a7ac684a9df395b8ac5257af1474dae4332ab042cc9622b9d4b75a7f2a85e519",
		"HC-DLA":             "915bd9944f76b1ede905e4b65ca7d01e41ec86e95e22c6ea2dcae69c62996f5a",
		"MC-DLA(S)":          "d625c31027418855073a433ddb2ff69e58f1b48fd71d08f34a856ab9a681d318",
		"MC-DLA(L)":          "b01dcdbe50f9bf9b560c52ee612637b6bae102543ab63ec5f8bda7cc2eb1360c",
		"MC-DLA(B)":          "2488463e1e15493a61a1abad5c05c78116872f1371c87a7f63611fbc699e5391",
		"DC-DLA(O)":          "47c8bdec736531d2f4b3d2241a3d42d4a3a69466c1e6c1b46be6659152c257f3",
		"mp-mixed":           "6de99b6ea0a39727ebf4dfeb4d797547d6bcec9f585e0c73dfea9e232f3cbad3",
		"transformer-seqlen": "5e013c45f144195a3fc8e743d3cb4f0e7154ea6d4734d0e1d84acc80fce4b445",
		"tagged":             "2488463e1e15493a61a1abad5c05c78116872f1371c87a7f63611fbc699e5391",
		"invalid-utf8":       "40142f7ed24cef6735ffb361e0824be9864d206284fd198ab2ae58176bf34ed8",
	}
	jobs := pinnedJobs()
	if len(jobs) != len(want) {
		t.Fatalf("%d pinned jobs, %d pinned hashes", len(jobs), len(want))
	}
	for name, j := range jobs {
		got, err := JobHash(j)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != want[name] {
			t.Errorf("%s: JobHash = %s, pinned %s", name, got, want[name])
		}
	}

	pinned, err := os.ReadFile("testdata/entry_testjob.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	_, data, err := encodeEntry(testJob(), testResult())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, pinned) {
		t.Fatalf("encodeEntry(testJob()) changed:\ngot  %s\nwant %s", data, pinned)
	}
}

// TestHashIgnoresTag: the Tag label is progress metadata, not a simulation
// input — jobs differing only by Tag share one entry.
func TestHashIgnoresTag(t *testing.T) {
	a, b := testJob(), testJob()
	a.Tag, b.Tag = "grid", "sens-variant"
	ha, _ := JobHash(a)
	hb, _ := JobHash(b)
	if ha != hb {
		t.Fatal("tag changed the job hash")
	}
}

// TestHashSeparatesInputs: every simulation input perturbs the hash.
func TestHashSeparatesInputs(t *testing.T) {
	base, _ := JobHash(testJob())
	perturb := map[string]func(*runner.Job){
		"batch":     func(j *runner.Job) { j.Batch++ },
		"workload":  func(j *runner.Job) { j.Workload = "AlexNet" },
		"strategy":  func(j *runner.Job) { j.Strategy = train.ModelParallel },
		"seqlen":    func(j *runner.Job) { j.SeqLen = 256 },
		"precision": func(j *runner.Job) { j.Precision = train.FP32 },
		"workers":   func(j *runner.Job) { j.Workers = 4 },
		"design":    func(j *runner.Job) { j.Design.VirtBW *= 2 },
	}
	for name, mut := range perturb {
		j := testJob()
		mut(&j)
		h, err := JobHash(j)
		if err != nil {
			t.Fatal(err)
		}
		if h == base {
			t.Errorf("changing %s did not change the hash", name)
		}
	}
}

// TestEngineReadThrough is the cross-process contract end-to-end: an engine
// populates the store, and a brand-new engine (a restarted process) serves
// the same grid entirely from disk with zero simulations.
func TestEngineReadThrough(t *testing.T) {
	st := open(t)
	jobs := runner.Grid{
		Workloads:  []string{"AlexNet", "RNN-GRU"},
		Designs:    core.StandardDesigns()[:2],
		Strategies: []train.Strategy{train.DataParallel},
		Batches:    []int{256},
		Workers:    8,
	}.Jobs()

	first := runner.New(runner.Options{Parallelism: 4, Store: st})
	want, err := first.Run(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s := first.Stats(); s.Simulated != int64(len(jobs)) || s.StoreHits != 0 {
		t.Fatalf("cold stats = %+v, want %d simulated", s, len(jobs))
	}

	// "Restart": a fresh engine with an empty memo on the same directory.
	second := runner.New(runner.Options{Parallelism: 4, Store: st})
	got, err := second.Run(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := second.Stats()
	if s.Simulated != 0 {
		t.Fatalf("restarted engine re-simulated %d jobs", s.Simulated)
	}
	if s.StoreHits != int64(len(jobs)) {
		t.Fatalf("restarted engine stats = %+v, want %d store hits", s, len(jobs))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("store-served results differ from simulated ones")
	}
}

func TestBlobRoundTripAndCorruption(t *testing.T) {
	s := open(t)
	payload := []byte(`{"name":"run","sections":[]}` + "\n")
	hash, err := s.PutBlob(payload)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s.GetBlob(hash)
	if !ok || string(got) != string(payload) {
		t.Fatalf("blob round trip failed (ok=%v)", ok)
	}
	// Corrupt the blob: the content no longer matches its name — miss.
	if err := os.WriteFile(s.dir+"/blobs/"+hash, []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetBlob(hash); ok {
		t.Fatal("corrupted blob was served")
	}
	for _, bad := range []string{"", "..", "../../etc/passwd", strings.Repeat("z", 64)} {
		if _, ok := s.GetBlob(bad); ok {
			t.Fatalf("GetBlob(%q) reported a hit", bad)
		}
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("Open(\"\") succeeded")
	}
}

func TestLoadSaveInterfaceBestEffort(t *testing.T) {
	s := open(t)
	j, r := testJob(), testResult()
	if _, ok := s.Load(j); ok {
		t.Fatal("Load hit on empty store")
	}
	s.Save(j, r)
	got, ok := s.Load(j)
	if !ok || !reflect.DeepEqual(got, r) {
		t.Fatal("interface round trip failed")
	}
	if s.loads.Load() != 2 || s.loadHits.Load() != 1 || s.saves.Load() != 1 {
		t.Fatalf("traffic counters = %d loads / %d hits / %d saves",
			s.loads.Load(), s.loadHits.Load(), s.saves.Load())
	}
}

func TestResultsShardedByHashPrefix(t *testing.T) {
	s := open(t)
	j := testJob()
	if err := s.SaveResult(j, testResult()); err != nil {
		t.Fatal(err)
	}
	hash, _ := JobHash(j)
	if _, err := os.Stat(fmt.Sprintf("%s/results/%s/%s.json", s.dir, hash[:2], hash)); err != nil {
		t.Fatalf("entry not in its shard directory: %v", err)
	}
}
