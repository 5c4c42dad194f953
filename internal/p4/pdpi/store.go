package pdpi

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"switchv/internal/p4/ir"
)

// Store holds the installed entries of a switch or simulator, keyed by
// table and canonical match key. It implements the P4Runtime insert,
// modify and delete semantics on the semantic entry representation.
//
// A Store is safe for concurrent readers (the parallel symbolic-
// generation and simulation engines share one store across workers);
// mutations must not race with reads, as everywhere else.
type Store struct {
	mu     sync.Mutex
	tables map[string]map[string]slot
	order  int

	// ordered caches Entries() results per table; mutations invalidate it.
	ordered map[string][]*Entry

	// gen counts mutations; versions counts them per table. Compiled
	// pipelines (internal/p4/compile) poll gen with one atomic load per
	// packet and recompile only tables whose version moved.
	gen      atomic.Uint64
	versions map[string]uint64
}

// slot is one installed entry with its insertion sequence number, which
// orders the table (stable first-match wins) and survives a Modify.
type slot struct {
	e   *Entry
	seq int
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		tables:   map[string]map[string]slot{},
		ordered:  map[string][]*Entry{},
		versions: map[string]uint64{},
	}
}

// Generation returns a counter that increases on every mutation. It is
// safe to read concurrently with other readers and is the cheap "did
// anything change" check for caches built over the store's contents.
func (s *Store) Generation() uint64 { return s.gen.Load() }

// TableVersion returns a counter that increases whenever the named
// table's entries change (0 for a never-touched table). Callers holding a
// compiled view of one table compare it against the version they built at.
func (s *Store) TableVersion(table string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.versions[table]
}

// bumpLocked records a mutation of a table. Callers hold s.mu.
func (s *Store) bumpLocked(table string) {
	s.versions[table]++
	s.gen.Add(1)
}

// Len returns the total number of installed entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, t := range s.tables {
		n += len(t)
	}
	return n
}

// TableLen returns the number of entries installed in a table.
func (s *Store) TableLen(table string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.tables[table])
}

// Insert adds an entry; it fails if an entry with the same match already
// exists.
func (s *Store) Insert(e *Entry) error { return s.InsertKey(e.Key(), e) }

// InsertKey is Insert for a caller that already holds e's match key; key
// must equal e.Key().
func (s *Store) InsertKey(key string, e *Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tables[e.Table.Name]
	if t == nil {
		t = map[string]slot{}
		s.tables[e.Table.Name] = t
	}
	if _, dup := t[key]; dup {
		return fmt.Errorf("pdpi: entry already exists: %s", key)
	}
	s.order++
	t[key] = slot{e: e, seq: s.order}
	delete(s.ordered, e.Table.Name)
	s.bumpLocked(e.Table.Name)
	return nil
}

// Modify replaces the action of an existing entry; it fails if the entry
// does not exist. The entry keeps its insertion position.
func (s *Store) Modify(e *Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := e.Key()
	t := s.tables[e.Table.Name]
	old, ok := t[key]
	if !ok {
		return fmt.Errorf("pdpi: entry does not exist: %s", key)
	}
	t[key] = slot{e: e, seq: old.seq}
	delete(s.ordered, e.Table.Name)
	s.bumpLocked(e.Table.Name)
	return nil
}

// Delete removes an entry by match; it fails if the entry does not exist.
func (s *Store) Delete(e *Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := e.Key()
	t := s.tables[e.Table.Name]
	if _, ok := t[key]; !ok {
		return fmt.Errorf("pdpi: entry does not exist: %s", key)
	}
	delete(t, key)
	delete(s.ordered, e.Table.Name)
	s.bumpLocked(e.Table.Name)
	return nil
}

// Get returns the entry with the same match as e, if installed.
func (s *Store) Get(e *Entry) (*Entry, bool) { return s.GetKey(e.Table.Name, e.Key()) }

// GetKey returns the entry of a table installed under a match key (as
// built by Entry.Key), if any.
func (s *Store) GetKey(table, key string) (*Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	got, ok := s.tables[table][key]
	return got.e, ok
}

// Entries returns the entries of a table in deterministic (insertion)
// order. The result is cached until the table changes; callers must not
// mutate it.
func (s *Store) Entries(table string) []*Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entriesLocked(table)
}

// entriesLocked ranks a table by the sequence numbers stored beside its
// entries. Building Entry.Key() here (say, inside the comparator) would
// cost two allocating rebuilds per comparison on every read-back.
func (s *Store) entriesLocked(table string) []*Entry {
	if out, ok := s.ordered[table]; ok {
		return out
	}
	t := s.tables[table]
	slots := make([]slot, 0, len(t))
	for _, sl := range t {
		slots = append(slots, sl)
	}
	slices.SortFunc(slots, func(a, b slot) int { return a.seq - b.seq })
	out := make([]*Entry, len(slots))
	for i, sl := range slots {
		out[i] = sl.e
	}
	s.ordered[table] = out
	return out
}

// All returns every installed entry, grouped by table in the program's
// declaration order when prog is non-nil, else by table name.
func (s *Store) All(prog *ir.Program) []*Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	var names []string
	if prog != nil {
		for _, t := range prog.Tables {
			names = append(names, t.Name)
		}
	} else {
		for name := range s.tables {
			names = append(names, name)
		}
		sort.Strings(names)
	}
	var out []*Entry
	for _, name := range names {
		out = append(out, s.entriesLocked(name)...)
	}
	return out
}

// Clone returns an independent store over the same entries. Installed
// entries are immutable by convention (updates replace the pointer), so
// the entries themselves are shared, making Clone cheap enough for the
// oracle's per-batch replay.
func (s *Store) Clone() *Store {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := NewStore()
	out.order = s.order
	for table, entries := range s.tables {
		out.tables[table] = maps.Clone(entries)
		out.versions[table] = s.versions[table]
	}
	out.gen.Store(s.gen.Load())
	return out
}

// Clear removes all entries. Table versions keep counting up across a
// Clear so compiled views never mistake "emptied and refilled" for
// "unchanged".
func (s *Store) Clear() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for table := range s.tables {
		s.bumpLocked(table)
	}
	s.tables = map[string]map[string]slot{}
	s.ordered = map[string][]*Entry{}
	s.order = 0
}

// Seq returns the insertion sequence number of an installed entry (0 if
// not installed). Lower numbers were installed earlier.
func (s *Store) Seq(e *Entry) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tables[e.Table.Name][e.Key()].seq
}
