// Package store is the durable, shared result plane under the simulation
// service: a content-addressed, disk-backed store of simulation results
// keyed by a canonical hash of the runner.Job that produced them. Results
// are deterministic functions of the job — the same property vDNN-style
// memoization exploits — so a stored entry is valid forever and shareable
// across processes: `mcdla serve -store DIR` survives restarts with its
// memoized plane intact, and extra `-worker` processes pull from the same
// directory to shard work across cores and machines.
//
// Layout under the store directory:
//
//	results/<hh>/<hash>.json   one simulation result per job hash
//	blobs/<hash>               rendered async-job responses, named by content
//	jobs/<id>.json             async job records (see queue.go)
//	jobs/<id>.claim            executor claims (O_EXCL; see queue.go)
//
// Every entry is written atomically (temp file + rename) and verified on
// read: a version or hash mismatch, a checksum failure, or a truncated or
// otherwise unparsable file is treated as a miss — never a panic, never a
// wrong result. The canonical job encoding is the compact json.Marshal
// encoding with every object's members sorted by key (byte order of the
// decoded key, as encoding/json sorts map keys), built in one pass over the
// marshalled bytes (canon.go). A version tag is folded into the hash, so a
// schema change invalidates old entries cleanly and field order can never
// perturb the key.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"github.com/memcentric/mcdla/internal/core"
	"github.com/memcentric/mcdla/internal/runner"
)

// Version tags the on-disk schema. It is folded into every job hash, so
// bumping it orphans (rather than misreads) entries written by older code.
const Version = "mcdla-store-v1"

// Store is a content-addressed result store rooted at a directory. It is
// safe for concurrent use by multiple goroutines and multiple processes:
// writes are atomic renames, reads verify checksums, and the async-job
// queue (queue.go) serializes execution through O_EXCL claim files.
type Store struct {
	dir string

	// loads/loadHits/saves count this process's result traffic (diagnostic;
	// the runner keeps the authoritative read-through accounting).
	loads, loadHits, saves atomic.Int64
}

// The Store plugs into the runner as its durable cache backend.
var _ runner.ResultStore = (*Store)(nil)

// Open prepares the store directory, creating the layout if needed.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	for _, sub := range []string{"results", "blobs", "jobs"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: %v", err)
		}
	}
	return &Store{dir: dir}, nil
}

// Dir reports the store's root directory.
func (s *Store) Dir() string { return s.dir }

// ------------------------------------------------------- canonical hashing

// hashBytes is the store's content hash: hex SHA-256.
func hashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// versionLine prefixes the canonical job JSON in every job hash.
const versionLine = Version + "\n"

// jobKey returns the job's content address and the canonical JSON of
// runner's Canonical form (the Tag label cleared) that it hashes, the job as
// a result entry records it. The Tag is progress-stream metadata, not a
// simulation input, so jobs that differ only by label share one entry
// (exactly like the runner's memo key).
func jobKey(j runner.Job) (hash string, canon []byte, err error) {
	raw, err := json.Marshal(j.Canonical())
	if err != nil {
		return "", nil, err
	}
	b, err := canonicalize(append(make([]byte, 0, len(versionLine)+len(raw)), versionLine...), raw)
	if err != nil {
		return "", nil, err
	}
	return hashBytes(b), b[len(versionLine):], nil
}

// JobHash returns the job's content address: SHA-256 over the store version
// tag and the canonical JSON of the job with its Tag cleared.
func JobHash(j runner.Job) (string, error) {
	hash, _, err := jobKey(j)
	return hash, err
}

// --------------------------------------------------------- result entries

// resultEntry is the on-disk format of one simulation result. Job is stored
// in canonical form so the file is self-describing (a store can be audited
// or re-keyed offline), and Checksum covers the Result bytes exactly as
// stored, so any corruption or truncation of the payload is detected.
type resultEntry struct {
	Version  string          `json:"version"`
	Hash     string          `json:"hash"`
	Job      json.RawMessage `json:"job"`
	Checksum string          `json:"checksum"`
	Result   json.RawMessage `json:"result"`
}

// encodeEntry builds the serialized entry for one (job, result) pair.
func encodeEntry(j runner.Job, r core.Result) (hash string, data []byte, err error) {
	hash, jobJSON, err := jobKey(j)
	if err != nil {
		return "", nil, err
	}
	resJSON, err := json.Marshal(r)
	if err != nil {
		return "", nil, err
	}
	data, err = json.Marshal(resultEntry{
		Version:  Version,
		Hash:     hash,
		Job:      jobJSON,
		Checksum: hashBytes(resJSON),
		Result:   resJSON,
	})
	if err != nil {
		return "", nil, err
	}
	return hash, data, nil
}

// decodeEntry verifies and decodes a serialized entry against the hash it
// was looked up under. Any mismatch — version, hash binding, checksum,
// malformed JSON — is an error the callers treat as a miss.
func decodeEntry(wantHash string, data []byte) (core.Result, error) {
	var e resultEntry
	if err := json.Unmarshal(data, &e); err != nil {
		return core.Result{}, fmt.Errorf("store: unparsable entry: %v", err)
	}
	if e.Version != Version {
		return core.Result{}, fmt.Errorf("store: entry version %q, want %q", e.Version, Version)
	}
	if e.Hash != wantHash {
		return core.Result{}, fmt.Errorf("store: entry hash %.12s does not match key %.12s", e.Hash, wantHash)
	}
	if got := hashBytes(e.Result); got != e.Checksum {
		return core.Result{}, fmt.Errorf("store: result checksum mismatch (corrupted entry)")
	}
	var r core.Result
	if err := json.Unmarshal(e.Result, &r); err != nil {
		return core.Result{}, fmt.Errorf("store: unparsable result: %v", err)
	}
	return r, nil
}

// resultPath shards entries by the hash's first byte to keep directories
// small at fleet scale.
func (s *Store) resultPath(hash string) string {
	return filepath.Join(s.dir, "results", hash[:2], hash+".json")
}

// LoadResult reads the stored result for a job. A missing, corrupted,
// truncated, or version-skewed entry reports ok=false with the (diagnostic)
// error; callers fall back to simulating.
func (s *Store) LoadResult(j runner.Job) (core.Result, bool, error) {
	hash, err := JobHash(j)
	if err != nil {
		return core.Result{}, false, err
	}
	data, err := os.ReadFile(s.resultPath(hash))
	if err != nil {
		return core.Result{}, false, err
	}
	r, err := decodeEntry(hash, data)
	if err != nil {
		return core.Result{}, false, err
	}
	return r, true, nil
}

// SaveResult durably stores a job's result (atomic write; last writer wins,
// and every writer writes identical bytes because results are deterministic
// and the encoding is canonical).
func (s *Store) SaveResult(j runner.Job, r core.Result) error {
	hash, data, err := encodeEntry(j, r)
	if err != nil {
		return err
	}
	path := s.resultPath(hash)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: %v", err)
	}
	return atomicWrite(path, data)
}

// Load implements runner.ResultStore: the read side of the engine's
// read-through, best-effort by contract (failures are misses).
func (s *Store) Load(j runner.Job) (core.Result, bool) {
	s.loads.Add(1)
	r, ok, _ := s.LoadResult(j)
	if ok {
		s.loadHits.Add(1)
	}
	return r, ok
}

// Save implements runner.ResultStore: the write side of the read-through,
// best-effort by contract (a failed write just costs a future re-simulation).
func (s *Store) Save(j runner.Job, r core.Result) {
	s.saves.Add(1)
	_ = s.SaveResult(j, r)
}

// ----------------------------------------------------------------- blobs

// PutBlob stores an opaque payload (a rendered async-job response) under
// its content hash and returns the hash — the "result id" the jobs API and
// its SSE streams hand out.
func (s *Store) PutBlob(b []byte) (string, error) {
	hash := hashBytes(b)
	return hash, atomicWrite(filepath.Join(s.dir, "blobs", hash), b)
}

// GetBlob fetches a payload by content hash, verifying the bytes still hash
// to their name; corruption is a miss, not a wrong result.
func (s *Store) GetBlob(hash string) ([]byte, bool) {
	if !validHash(hash) {
		return nil, false
	}
	b, err := os.ReadFile(filepath.Join(s.dir, "blobs", hash))
	if err != nil || hashBytes(b) != hash {
		return nil, false
	}
	return b, true
}

// validHash guards file-name construction from untrusted identifiers: only
// full-length lowercase hex survives.
func validHash(h string) bool {
	if len(h) != 64 {
		return false
	}
	for _, c := range h {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// atomicWrite lands data at path via a temp file and rename, so concurrent
// readers (and crash recovery) only ever see empty-or-complete files.
func atomicWrite(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %v", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %v", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: %v", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: %v", err)
	}
	return nil
}
