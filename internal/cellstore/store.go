package cellstore

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"smtsim"
)

// prefixLen is the shard fan-out: cells land in shards/<hash[:2]>.jsonl.
const prefixLen = 2

// manifest is the store's self-description, written atomically at
// creation. A schema mismatch on open is a hard error: a store written
// under one schema can never serve cells to another.
type manifest struct {
	Schema    int    `json:"schema"`
	PrefixLen int    `json:"prefix_len"`
	CreatedAt string `json:"created_at"`
}

// record is one persisted cell: its hash, the full spec (so the store
// is self-describing and auditable), and the result.
type record struct {
	Hash   string        `json:"hash"`
	Spec   Spec          `json:"spec"`
	Result smtsim.Result `json:"result"`
}

// lease is the on-disk claim a worker holds on a cell it is simulating.
// A worker that dies leaves its lease behind; once ExpiresUnixNano
// passes, any other worker may steal the cell.
type lease struct {
	Owner           string `json:"owner"`
	ExpiresUnixNano int64  `json:"expires_unix_nano"`
}

// Stats counts store traffic since open. Values only grow.
type Stats struct {
	Hits         int64 `json:"hits"`
	Misses       int64 `json:"misses"`
	Puts         int64 `json:"puts"`
	TornTails    int64 `json:"torn_tails"`
	LeasesStolen int64 `json:"leases_stolen"`
}

// Store is an on-disk, content-addressed cell result store. It is safe
// for concurrent use within a process, and safe across processes for
// the operations the sweep service needs: appends are single-write
// JSON lines (torn tails are recovered, not fatal), manifest and lease
// writes go through atomic renames, and Get transparently picks up
// records appended by other processes.
type Store struct {
	dir string

	// Now is the lease clock, injectable for expiry tests.
	Now func() time.Time

	mu sync.Mutex
	//smt:guarded-by(mu)
	index map[string]record
	// shardSize tracks the bytes of each shard already indexed.
	//smt:guarded-by(mu)
	shardSize map[string]int64
	//smt:guarded-by(mu)
	stats Stats
}

// Open opens (creating if necessary) the store rooted at dir, verifies
// its manifest, and recovers any torn shard tails left by a crashed
// writer. The recovered suffix is truncated — those cells simply miss
// and re-simulate.
func Open(dir string) (*Store, error) {
	for _, d := range []string{dir, filepath.Join(dir, "shards"), filepath.Join(dir, "leases")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("cellstore: %w", err)
		}
	}
	s := &Store{
		dir:       dir,
		Now:       time.Now,
		index:     make(map[string]record),
		shardSize: make(map[string]int64),
	}
	if err := s.checkManifest(); err != nil {
		return nil, err
	}
	shards, err := filepath.Glob(filepath.Join(dir, "shards", "*.jsonl"))
	if err != nil {
		return nil, fmt.Errorf("cellstore: %w", err)
	}
	for _, path := range shards {
		if err := s.recoverShard(path); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Dir returns the store's root directory (the daemon parks its queue
// checkpoint next to the shards).
func (s *Store) Dir() string { return s.dir }

func (s *Store) checkManifest() error {
	path := filepath.Join(s.dir, "MANIFEST.json")
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		m := manifest{Schema: SchemaVersion, PrefixLen: prefixLen, CreatedAt: s.Now().UTC().Format(time.RFC3339)}
		mb, _ := json.MarshalIndent(m, "", "  ")
		return AtomicWrite(path, append(mb, '\n'))
	}
	if err != nil {
		return fmt.Errorf("cellstore: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return fmt.Errorf("cellstore: corrupt manifest %s: %w", path, err)
	}
	if m.Schema != SchemaVersion || m.PrefixLen != prefixLen {
		return fmt.Errorf("cellstore: store %s has schema v%d/prefix %d, this build wants v%d/prefix %d: point at a fresh directory (old caches must never serve a new schema)",
			s.dir, m.Schema, m.PrefixLen, SchemaVersion, prefixLen)
	}
	return nil
}

// recoverShard indexes one shard file. A torn tail — a final line that
// is incomplete or fails to parse, the signature of a writer killed
// mid-append — is truncated away by rewriting the valid prefix through
// an atomic rename, and counted in Stats.TornTails. Anything beyond a
// torn line is unreachable by the append-only protocol, so truncation
// loses at most the one record that was being written.
func (s *Store) recoverShard(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("cellstore: %w", err)
	}
	valid, recs := scanRecords(b)
	if valid < int64(len(b)) {
		if err := AtomicWrite(path, b[:valid]); err != nil {
			return fmt.Errorf("cellstore: truncating torn tail of %s: %w", path, err)
		}
		s.mu.Lock()
		s.stats.TornTails++
		s.mu.Unlock()
	}
	s.mu.Lock()
	for _, r := range recs {
		s.index[r.Hash] = r
	}
	s.shardSize[filepath.Base(path)] = valid
	s.mu.Unlock()
	return nil
}

// scanRecords parses newline-terminated JSON records from b, returning
// the byte length of the valid prefix and the records in it. Parsing
// stops at the first line that is unterminated or not a record.
func scanRecords(b []byte) (int64, []record) {
	var recs []record
	var valid int64
	for off := 0; off < len(b); {
		nl := -1
		for i := off; i < len(b); i++ {
			if b[i] == '\n' {
				nl = i
				break
			}
		}
		if nl < 0 {
			break // unterminated tail
		}
		var r record
		if err := json.Unmarshal(b[off:nl], &r); err != nil || r.Hash == "" {
			break // torn or foreign line; everything after is suspect
		}
		recs = append(recs, r)
		valid = int64(nl + 1)
		off = nl + 1
	}
	return valid, recs
}

func (s *Store) shardPath(hash string) (string, error) {
	if len(hash) < prefixLen {
		return "", fmt.Errorf("cellstore: malformed hash %q", hash)
	}
	return filepath.Join(s.dir, "shards", hash[:prefixLen]+".jsonl"), nil
}

// Get returns the stored result for a cell hash. On an index miss it
// re-reads the cell's shard from disk first, so results appended by
// other worker processes are visible without reopening the store. The
// in-progress tail of a concurrent append (if any) is skipped, not
// treated as corruption.
func (s *Store) Get(hash string) (smtsim.Result, bool, error) {
	s.mu.Lock()
	if r, ok := s.index[hash]; ok {
		s.stats.Hits++
		s.mu.Unlock()
		return r.Result, true, nil
	}
	s.mu.Unlock()

	path, err := s.shardPath(hash)
	if err != nil {
		return smtsim.Result{}, false, err
	}
	b, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return smtsim.Result{}, false, fmt.Errorf("cellstore: %w", err)
	}
	valid, recs := scanRecords(b)

	s.mu.Lock()
	defer s.mu.Unlock()
	name := filepath.Base(path)
	if valid > s.shardSize[name] {
		s.shardSize[name] = valid
	}
	for _, r := range recs {
		s.index[r.Hash] = r
	}
	if r, ok := s.index[hash]; ok {
		s.stats.Hits++
		return r.Result, true, nil
	}
	s.stats.Misses++
	return smtsim.Result{}, false, nil
}

// Lookup returns the indexed result for hash and the index's own copy
// of the hash string. Unlike Get it never reads a shard and counts no
// traffic: it re-reads a cell the caller already saw land, and lets a
// caller that keeps hashes share the index's strings.
func (s *Store) Lookup(hash string) (key string, res smtsim.Result, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.index[hash]
	return r.Hash, r.Result, ok
}

// Put persists one cell result. The record is appended to its shard as
// a single write; a crash mid-append leaves a torn tail the next Open
// recovers. Re-putting an existing hash is idempotent (cells are
// deterministic, so any two writers wrote the same result).
func (s *Store) Put(spec Spec, res smtsim.Result) (string, error) {
	hash := spec.Key()
	line, err := json.Marshal(record{Hash: hash, Spec: spec.Canonical(), Result: res})
	if err != nil {
		return "", fmt.Errorf("cellstore: %w", err)
	}
	line = append(line, '\n')
	path, err := s.shardPath(hash)
	if err != nil {
		return "", err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[hash]; ok {
		return hash, nil
	}
	if err := appendShard(path, line); err != nil {
		return "", fmt.Errorf("cellstore: %w", err)
	}
	s.index[hash] = record{Hash: hash, Spec: spec.Canonical(), Result: res}
	s.shardSize[filepath.Base(path)] += int64(len(line))
	s.stats.Puts++
	return hash, nil
}

// Len returns the number of cells currently indexed.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// StatsSnapshot returns a copy of the traffic counters.
func (s *Store) StatsSnapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// --- leases -----------------------------------------------------------

func (s *Store) leasePath(hash string) string {
	return filepath.Join(s.dir, "leases", hash+".lease")
}

// TryLease attempts to claim a cell for owner until ttl from now. It
// returns true when the claim holds: either the lease file was created
// fresh, renewed (same owner), or stolen from an expired holder. A
// live lease held by someone else returns false.
//
// Stealing goes through an atomic rename and then re-reads the file:
// if two workers race to steal the same expired lease, the rename that
// lands second wins and the loser observes a foreign owner.
func (s *Store) TryLease(hash, owner string, ttl time.Duration) (bool, error) {
	path := s.leasePath(hash)
	now := s.Now()
	body, err := json.Marshal(lease{Owner: owner, ExpiresUnixNano: now.Add(ttl).UnixNano()})
	if err != nil {
		return false, fmt.Errorf("cellstore: %w", err)
	}
	body = append(body, '\n')

	// Fast path: no lease exists yet.
	created, err := createLease(path, body)
	if err != nil {
		return false, err
	}
	if created {
		return true, nil
	}

	cur, ok, err := s.readLease(hash)
	if err != nil {
		return false, err
	}
	if ok && cur.Owner != owner && cur.ExpiresUnixNano > now.UnixNano() {
		return false, nil // live, foreign
	}
	stolen := ok && cur.Owner != owner
	if err := AtomicWrite(path, body); err != nil {
		return false, fmt.Errorf("cellstore: stealing lease: %w", err)
	}
	// Confirm the steal landed (another stealer's rename may have won).
	got, ok, err := s.readLease(hash)
	if err != nil {
		return false, err
	}
	if !ok || got.Owner != owner {
		return false, nil
	}
	if stolen {
		s.mu.Lock()
		s.stats.LeasesStolen++
		s.mu.Unlock()
	}
	return true, nil
}

// readLease decodes a lease file; a missing or corrupt file reads as
// "no lease" (corrupt means a torn atomic-rename temp is impossible,
// so treat it as expired garbage to be overwritten).
func (s *Store) readLease(hash string) (lease, bool, error) {
	b, err := os.ReadFile(s.leasePath(hash))
	if errors.Is(err, fs.ErrNotExist) {
		return lease{}, false, nil
	}
	if err != nil {
		return lease{}, false, fmt.Errorf("cellstore: %w", err)
	}
	var l lease
	if err := json.Unmarshal(b, &l); err != nil || l.Owner == "" {
		return lease{}, false, nil
	}
	return l, true, nil
}

// LeaseHolder reports the current lease owner and expiry, if any.
func (s *Store) LeaseHolder(hash string) (owner string, expires time.Time, ok bool) {
	l, ok, err := s.readLease(hash)
	if err != nil || !ok {
		return "", time.Time{}, false
	}
	return l.Owner, time.Unix(0, l.ExpiresUnixNano), true
}

// Release drops a lease if (and only if) owner still holds it.
func (s *Store) Release(hash, owner string) error {
	l, ok, err := s.readLease(hash)
	if err != nil {
		return err
	}
	if !ok || l.Owner != owner {
		return nil
	}
	if err := os.Remove(s.leasePath(hash)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("cellstore: %w", err)
	}
	return nil
}

// AtomicWrite writes data to path through a same-directory temp file
// and rename, so readers observe either the old content or the new,
// never a partial write. It is one of the three blessed
// crash-consistency helpers (policy.AtomicFSAllowed): all service-layer
// durable writes outside shard appends and lease creation route
// through it, and the atomicfs analyzer enforces that.
func AtomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	w := bufio.NewWriter(tmp)
	_, werr := w.Write(data)
	ferr := w.Flush()
	cerr := tmp.Close()
	if err := errors.Join(werr, ferr, cerr); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// appendShard appends one pre-terminated record line to a shard file as
// a single write. A crash mid-append leaves a torn tail that the next
// Open truncates away — the append-only protocol's recovery unit is one
// record. Blessed helper (policy.AtomicFSAllowed).
func appendShard(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(line)
	cerr := f.Close()
	return errors.Join(werr, cerr)
}

// createLease creates a lease file with O_CREATE|O_EXCL — the atomic
// "first claimant wins" fast path of the lease protocol. created=false
// with a nil error means the file already existed (somebody holds or
// held the lease); steals go through AtomicWrite instead. Blessed
// helper (policy.AtomicFSAllowed).
func createLease(path string, body []byte) (created bool, err error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		if errors.Is(err, fs.ErrExist) {
			return false, nil
		}
		return false, fmt.Errorf("cellstore: %w", err)
	}
	_, werr := f.Write(body)
	cerr := f.Close()
	if werr != nil || cerr != nil {
		return false, fmt.Errorf("cellstore: writing lease: %w", errors.Join(werr, cerr))
	}
	return true, nil
}
