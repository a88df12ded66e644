package resultstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"lattecc/internal/harness"
	"lattecc/internal/sim"
)

// suffix is the on-disk entry extension: <16-hex-keyhash>.lcr.
const suffix = ".lcr"

// Options configures a Store.
type Options struct {
	// MaxBytes bounds the total size of all entries; <= 0 is unbounded.
	// When a write pushes the store past the bound, least-recently-used
	// entries are deleted until it fits again — except the newest entry,
	// which is always retained (a store that immediately evicts what it
	// just learned would never serve anything).
	MaxBytes int64
}

// Counters is a snapshot of the store's activity, rendered on the
// daemon's /metrics and printed by `latteclient store`.
type Counters struct {
	Hits      uint64 // Loads served from a validated entry
	Misses    uint64 // Loads with no entry on disk
	Corrupt   uint64 // entries discarded by validation (also counted nowhere else)
	Evictions uint64 // entries deleted by the LRU size bound
	Saves     uint64 // entries written by Save
	Entries   int    // entries currently indexed
	Bytes     int64  // total size of indexed entries
}

// Store is a directory of self-validating result entries. It implements
// harness.Store: Load returns only results whose recomputed StateHash
// matches the stored one; anything else is discarded and reported as a
// miss (fail closed — the caller re-simulates). All methods are safe for
// concurrent use.
//
// Locking contract (machine-checked by lattelint): mu guards only the
// entry index and its byte/clock accounting, never file I/O — reads and
// writes of entry files happen with mu released, so a slow disk never
// serializes unrelated keys. The filesystem itself is made safe by
// write-to-temp + rename (entries appear atomically) and by tolerating
// ENOENT on read (a concurrent eviction is just a miss).
type Store struct {
	dir      string
	maxBytes int64

	hits      atomic.Uint64
	misses    atomic.Uint64
	corrupt   atomic.Uint64
	evictions atomic.Uint64
	saves     atomic.Uint64

	mu sync.Mutex //lint:mutex nocalls
	//lint:guards mu
	entries map[string]*entryMeta
	//lint:guards mu
	total int64
	//lint:guards mu
	clock uint64 // LRU tick; higher = more recently used
}

// entryMeta is the in-memory index record for one on-disk entry.
type entryMeta struct {
	size    int64
	lastUse uint64
}

// Open creates (if needed) and indexes a store directory. The warm-start
// scan only stats entries — validation is deferred to first Load, so a
// daemon restart over a large store is immediate. Pre-existing entries
// enter the LRU order by modification time; if the directory already
// exceeds MaxBytes, the oldest entries are evicted before Open returns.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: open %s: %w", dir, err)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("resultstore: scan %s: %w", dir, err)
	}
	type scanned struct {
		name  string
		size  int64
		mtime int64
	}
	var found []scanned
	for _, de := range des {
		name, ok := strings.CutSuffix(de.Name(), suffix)
		if !ok || !validKeyHex(name) || de.IsDir() {
			continue // temp files, foreign files
		}
		info, err := de.Info()
		if err != nil {
			continue // raced with an eviction elsewhere
		}
		found = append(found, scanned{name: name, size: info.Size(), mtime: info.ModTime().UnixNano()})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].mtime < found[j].mtime })

	s := &Store{
		dir:      dir,
		maxBytes: opts.MaxBytes,
	}
	// The store is not yet shared, but the index fields carry a lock
	// contract; taking mu here keeps the contract unconditional.
	s.mu.Lock()
	s.entries = make(map[string]*entryMeta, len(found))
	for i, f := range found {
		s.entries[f.name] = &entryMeta{size: f.size, lastUse: uint64(i + 1)}
		s.total += f.size
	}
	s.clock = uint64(len(found))
	s.mu.Unlock()
	s.evictOverBudget()
	return s, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Counters returns a point-in-time snapshot of the store's activity.
func (s *Store) Counters() Counters {
	c := Counters{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Corrupt:   s.corrupt.Load(),
		Evictions: s.evictions.Load(),
		Saves:     s.saves.Load(),
	}
	s.mu.Lock()
	c.Entries = len(s.entries)
	c.Bytes = s.total
	s.mu.Unlock()
	return c
}

// Load implements harness.Store. It returns ok only for an entry that
// decoded cleanly, checksummed, matched the requested key field for
// field, and whose recomputed StateHash equals the stored one. Every
// other outcome — no entry, unreadable file, truncation, garbage, hash
// or key mismatch — is a miss; corrupt entries are deleted so they are
// paid for once.
func (s *Store) Load(k harness.StoreKey) (sim.Result, bool) {
	name := KeyHex(k)
	s.mu.Lock()
	m, ok := s.entries[name]
	if ok {
		s.clock++
		m.lastUse = s.clock
	}
	s.mu.Unlock()
	if !ok {
		s.misses.Add(1)
		return sim.Result{}, false
	}
	raw, err := os.ReadFile(s.path(name))
	if err != nil {
		if os.IsNotExist(err) {
			// Concurrently evicted: the index already dropped it (or
			// will); this is an ordinary miss, not corruption.
			s.dropIndexed(name)
			s.misses.Add(1)
			return sim.Result{}, false
		}
		s.discardCorrupt(name)
		return sim.Result{}, false
	}
	dk, res, err := Decode(raw)
	if err != nil || dk != k {
		// Decode failure, or a 64-bit filename-hash collision / tampered
		// key block: either way this entry cannot serve k. Fail closed.
		s.discardCorrupt(name)
		return sim.Result{}, false
	}
	s.hits.Add(1)
	return res, true
}

// Save implements harness.Store: encode and persist one fresh result.
// Errors are deliberately swallowed after counting — the store is a
// cache, and a full disk must not fail the simulation that produced the
// result.
func (s *Store) Save(k harness.StoreKey, res sim.Result) {
	_ = s.put(KeyHex(k), Encode(k, res))
}

func (s *Store) path(name string) string { return filepath.Join(s.dir, name+suffix) }

// validKeyHex reports whether name is exactly the 16 lowercase hex
// digits KeyHex produces — the only names the store will index or serve
func validKeyHex(name string) bool {
	if len(name) != 16 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// put writes raw atomically (temp + rename) and indexes it.
func (s *Store) put(name string, raw []byte) error {
	tmp, err := os.CreateTemp(s.dir, "put-*.tmp")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(raw)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), s.path(name))
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return werr
	}
	s.mu.Lock()
	if old, ok := s.entries[name]; ok {
		s.total -= old.size
	}
	s.clock++
	s.entries[name] = &entryMeta{size: int64(len(raw)), lastUse: s.clock}
	s.total += int64(len(raw))
	s.mu.Unlock()
	s.saves.Add(1)
	s.evictOverBudget()
	return nil
}

// dropIndexed removes name from the index without touching disk.
func (s *Store) dropIndexed(name string) {
	s.mu.Lock()
	if m, ok := s.entries[name]; ok {
		s.total -= m.size
		delete(s.entries, name)
	}
	s.mu.Unlock()
}

// discardCorrupt counts, de-indexes, and deletes a failed entry.
func (s *Store) discardCorrupt(name string) {
	s.corrupt.Add(1)
	s.dropIndexed(name)
	os.Remove(s.path(name))
}

// evictOverBudget deletes LRU entries until the store fits MaxBytes,
// always retaining at least the most recently used entry. Victim
// selection runs under mu (pure index scan); file deletion does not.
func (s *Store) evictOverBudget() {
	if s.maxBytes <= 0 {
		return
	}
	for {
		s.mu.Lock()
		if s.total <= s.maxBytes || len(s.entries) <= 1 {
			s.mu.Unlock()
			return
		}
		victim := ""
		var oldest uint64
		for name, m := range s.entries {
			if victim == "" || m.lastUse < oldest {
				victim, oldest = name, m.lastUse
			}
		}
		m := s.entries[victim]
		s.total -= m.size
		delete(s.entries, victim)
		s.mu.Unlock()
		os.Remove(s.path(victim))
		s.evictions.Add(1)
	}
}
