package store

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/memcentric/mcdla/internal/core"
	"github.com/memcentric/mcdla/internal/runner"
	"github.com/memcentric/mcdla/internal/train"
	"github.com/memcentric/mcdla/internal/units"
)

// fuzzJob shapes arbitrary fuzz inputs into a Job: the values need not be
// simulatable — the codec must round-trip any value tree the type admits.
func fuzzJob(workload, tag string, batch, workers, seqlen int, strategy, prec uint8, virtGBps float64) runner.Job {
	designs := core.StandardDesigns()
	d := designs[uint(batch)%uint(len(designs))]
	if !math.IsNaN(virtGBps) && !math.IsInf(virtGBps, 0) {
		d.VirtBW = units.GBps(virtGBps)
	}
	return runner.Job{
		Design:    d,
		Workload:  workload,
		Strategy:  train.Strategy(strategy % 2),
		Batch:     batch,
		Workers:   workers,
		SeqLen:    seqlen,
		Precision: train.Precision(prec % 3),
		Tag:       tag,
	}
}

// FuzzStoreRoundTrip: encode→decode is identity for randomized job/result
// pairs, and the hash is a stable pure function of the job.
func FuzzStoreRoundTrip(f *testing.F) {
	f.Add("VGG-E", "grid", 512, 8, 0, uint8(0), uint8(0), 25.0, 0.051141, int64(123456789))
	f.Add("", "", -1, 0, -99, uint8(1), uint8(2), 0.0, -1.5, int64(-7))
	f.Add("GPT-2", "x", 1<<20, 64, 4096, uint8(7), uint8(5), 1e12, 1e-9, int64(1)<<62)
	f.Fuzz(func(t *testing.T, workload, tag string, batch, workers, seqlen int,
		strategy, prec uint8, virtGBps, iterSec float64, traffic int64) {
		if math.IsNaN(iterSec) || math.IsInf(iterSec, 0) {
			t.Skip("JSON cannot carry non-finite numbers")
		}
		j := fuzzJob(workload, tag, batch, workers, seqlen, strategy, prec, virtGBps)
		r := core.Result{
			Design:        j.Design.Name,
			Workload:      workload,
			Strategy:      j.Strategy,
			Precision:     j.Precision,
			IterationTime: units.Time(iterSec),
			VirtTraffic:   units.Bytes(traffic),
			SyncTraffic:   units.Bytes(traffic / 2),
		}

		h1, err := JobHash(j)
		if err != nil {
			t.Fatalf("JobHash: %v", err)
		}
		h2, _ := JobHash(j)
		if h1 != h2 {
			t.Fatal("JobHash is not deterministic")
		}

		hash, data, err := encodeEntry(j, r)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		if hash != h1 {
			t.Fatal("entry hash disagrees with JobHash")
		}
		got, err := decodeEntry(hash, data)
		if err != nil {
			t.Fatalf("decode of a clean entry failed: %v", err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("round trip changed the result:\ngot  %+v\nwant %+v", got, r)
		}
	})
}

// checkCanonical asserts that canonicalize reproduces the reference
// decode and re-marshal of raw, a json.Marshal encoding, byte for byte.
// The jobs passed in keep their Tag, so the tag string exercises the
// string path too.
func checkCanonical(t *testing.T, raw []byte) {
	t.Helper()
	want, err := canonicalizeJSON(raw)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	got, err := canonicalize(nil, raw)
	if err != nil {
		t.Fatalf("canonicalize: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("canonicalize disagrees with the reference:\ngot  %q\nwant %q", got, want)
	}
}

// FuzzCanonicalJSON: the one-pass canonical encoding equals the generic
// decode and re-marshal for arbitrary strings (escapes, control
// characters, HTML characters, line separators, invalid UTF-8) and
// floats at the edges of json.Marshal's number formats.
func FuzzCanonicalJSON(f *testing.F) {
	f.Add("VGG-E", "grid", "MC-DLA(B)", 512, 8, 0, 25.0, 2.5e-7)
	f.Add("VGG\xff-E\xc3", "\xed\xa0\x80", "\\ufffd", 1<<62, -1, -99, math.Copysign(0, -1), 5e-324)
	f.Add("<>&\u2028\u2029", "\"\\\x00\x1f\x7f", "\ufffd\b\f\n\r\t", -1<<63, 0, 4096, 1e21, 1e-7)
	f.Add("", "", "", 0, 0, 0, 1e20, 123456789012345678.0)
	f.Fuzz(func(t *testing.T, workload, tag, name string, batch, workers, seqlen int, virtGBps, alpha float64) {
		j := fuzzJob(workload, tag, batch, workers, seqlen, uint8(batch), uint8(workers), virtGBps)
		j.Design.Name = name
		j.Design.Sync.StepAlpha = units.Time(alpha)
		raw, err := json.Marshal(j)
		if err != nil {
			t.Skip("JSON cannot carry non-finite numbers")
		}
		checkCanonical(t, raw)
	})
}

// TestCanonicalMatchesReference runs the canonical-encoding property over a
// deterministic randomized corpus in every `go test` run: random strings
// drawn from bytes that need escaping or are invalid UTF-8, and floats
// from across the exponent range.
func TestCanonicalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	alphabet := []string{"a", "Z", "<", ">", "&", "\"", "\\", "/", "\x00", "\x1f", "\x7f",
		"\xff", "\xc3", "\xed\xa0\x80", "\u2028", "\u2029", "\ufffd", `\ufffd`, "é", "\U0001F600"}
	str := func() string {
		var b []byte
		for n := rng.Intn(8); n > 0; n-- {
			b = append(b, alphabet[rng.Intn(len(alphabet))]...)
		}
		return string(b)
	}
	for i := 0; i < 2000; i++ {
		j := fuzzJob(str(), str(), rng.Int()-rng.Int(), rng.Intn(64), rng.Intn(8192),
			uint8(rng.Intn(8)), uint8(rng.Intn(8)), math.Ldexp(rng.Float64(), rng.Intn(2060)-1074))
		j.Design.Name = str()
		j.Design.Sync.StepAlpha = units.Time(-rng.ExpFloat64() * 1e-7)
		raw, err := json.Marshal(j)
		if err != nil {
			t.Fatal(err)
		}
		checkCanonical(t, raw)
	}
}

// TestCanonicalizeGenericDocument covers the shapes a job does not have:
// arrays, empty containers, and map keys that need escaping or decode
// alike (json.Marshal writes both invalid bytes below as one escape, and
// the generic decode keeps the last).
func TestCanonicalizeGenericDocument(t *testing.T) {
	raw, err := json.Marshal(map[string]any{
		"\xfe": 1, "\xff": 2, "<b>": []any{map[string]int{"z": 1, "\u2028": 2}, []int{}, nil},
		"a": map[string]any{}, "é": "\"quoted\"", "\x01": []string{"\xc3", ""},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkCanonical(t, raw)
}

// FuzzEntryDecode: arbitrary bytes — including corrupted and truncated
// variants of valid entries — never panic and never decode into a hit that
// differs from the original result.
func FuzzEntryDecode(f *testing.F) {
	j, r := runner.Job{
		Design: core.StandardDesigns()[0], Workload: "VGG-E",
		Strategy: train.DataParallel, Batch: 512, Workers: 8,
	}, core.Result{Design: "DC-DLA", IterationTime: units.Time(0.1)}
	hash, clean, err := encodeEntry(j, r)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(clean)
	f.Add(clean[:len(clean)/2])
	f.Add([]byte("{}"))
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeEntry(hash, data) // must not panic
		if err == nil && !reflect.DeepEqual(got, r) {
			t.Fatalf("corrupted entry decoded cleanly into a different result: %+v", got)
		}
	})
}

// FuzzJobID: arbitrary query strings never panic, and the id is idempotent
// under canonicalization — re-submitting the canonical query maps to the
// same job.
func FuzzJobID(f *testing.F) {
	f.Add("/v1/run", "net=VGG-E&design=MC-DLA(B)", "json")
	f.Add("/v1/optimize", "b=2&a=1&a=0", "text")
	f.Add("", "", "")
	f.Add("/v1/run", "%zz=&&==&", "md")
	f.Fuzz(func(t *testing.T, path, query, format string) {
		id, canonical, err := JobID(path, query, format)
		if err != nil {
			return // invalid query encodings are rejected, not normalized
		}
		id2, canonical2, err := JobID(path, canonical, format)
		if err != nil {
			t.Fatalf("canonical query %q did not re-parse: %v", canonical, err)
		}
		if id2 != id || canonical2 != canonical {
			t.Fatalf("JobID not idempotent: %q/%q vs %q/%q", id, canonical, id2, canonical2)
		}
		if !validHash(id) {
			t.Fatalf("job id %q is not a valid content hash", id)
		}
	})
}

// TestRoundTripPropertyRandomized drives the codec over a deterministic
// randomized corpus as a plain test, so the property holds in every `go
// test` run, not only under -fuzz.
func TestRoundTripPropertyRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	workloads := []string{"VGG-E", "AlexNet", "RNN-GRU", "BERT-Large", "GPT-2", ""}
	for i := 0; i < 200; i++ {
		j := fuzzJob(
			workloads[rng.Intn(len(workloads))],
			"",
			rng.Intn(1<<16)-1024,
			rng.Intn(64),
			rng.Intn(8192)-1,
			uint8(rng.Intn(8)),
			uint8(rng.Intn(8)),
			rng.Float64()*1e6,
		)
		r := core.Result{
			Design:        j.Design.Name,
			Workload:      j.Workload,
			IterationTime: units.Time(rng.Float64()),
			VirtTraffic:   units.Bytes(rng.Int63()),
			HostBytes:     units.Bytes(rng.Int63()),
		}
		hash, data, err := encodeEntry(j, r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeEntry(hash, data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("iteration %d: round trip changed the result", i)
		}
		_ = data
	}
}
