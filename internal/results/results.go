// Package results is the benchmark's content-addressed result store: a
// durable, versioned cache of completed verification-grid cells.
//
// Every (dataset, method, model) cell of the evaluation grid is fully
// deterministic given the benchmark configuration, so its outcomes can be
// persisted once and replayed by any consumer — an interrupted full-scale
// run resumes from the cells that already finished, a config delta (one
// extra model, one changed method) recomputes only the affected slice of
// the grid, and the web application serves per-fact drill-downs from O(1)
// lookups instead of re-verifying on every page request.
//
// Cells are keyed by a Fingerprint: a det-hashed digest of everything that
// determines the cell's outcomes (world configuration, dataset scale, RAG
// configuration, dataset, method, model, plus the snapshot format version).
// Any configuration change yields a different fingerprint, so a stale
// snapshot can never be silently reused — it is simply never looked up
// again, and the store's content-addressing makes "is this cell done?" a
// single map probe.
//
// On disk a store is a flat directory of snapshot files, one per cell,
// named "<fingerprint>.cell" and written atomically and durably (synced
// temp file, rename, synced directory), so a killed run or a lost machine
// leaves either a complete snapshot or none. Snapshots
// carry a magic header, a format version, the embedded fingerprint and a
// trailing checksum; files that are truncated, corrupt, misnamed or of a
// foreign version are rejected at load time and treated as missing (the
// next run recomputes and rewrites them).
package results

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"factcheck/internal/dataset"
	"factcheck/internal/det"
	"factcheck/internal/llm"
	"factcheck/internal/rag"
	"factcheck/internal/strategy"
	"factcheck/internal/world"
)

// fingerprintVersion is folded into every fingerprint so that changes to
// the key composition (or to outcome semantics) invalidate old snapshots
// wholesale instead of silently reusing them.
const fingerprintVersion = "results-fp-v2"

// Fingerprint is the content address of one grid cell: a 64-bit det hash
// of the full Key. Equal fingerprints mean "same outcomes, bit for bit".
type Fingerprint uint64

// String renders the fingerprint as fixed-width hex (the on-disk file
// stem).
func (f Fingerprint) String() string { return fmt.Sprintf("%016x", uint64(f)) }

// Key is everything that determines a cell's outcomes. Parallelism is
// deliberately absent: results are byte-identical at any worker count, so
// a store written at -par 8 is valid for a -par 1 run and vice versa.
type Key struct {
	// World is the full synthetic-universe configuration (seed and sizes).
	World world.Config
	// Scale is the dataset scale factor.
	Scale float64
	// RAG is the retrieval-pipeline configuration (affects RAG outcomes
	// and the evidence-dependent latency model).
	RAG rag.Config
	// Corpus is the dataset's live-ingestion content digest (0 for a
	// pristine generated corpus). Every ingested document changes it, so
	// cells computed over different corpus epochs can never be confused:
	// content addressing does the invalidation.
	Corpus uint64
	// Dataset, Method and Model identify the cell within the grid.
	Dataset dataset.Name
	Method  llm.Method
	Model   string
}

// Fingerprint digests the key. Fields are serialised explicitly (not via
// reflection) so the hash is stable across Go versions and struct
// reordering; adding a field to world.Config or rag.Config must be
// mirrored here, which is exactly the invalidation behaviour we want.
func (k Key) Fingerprint() Fingerprint {
	i := strconv.Itoa
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return Fingerprint(det.Hash64(
		fingerprintVersion,
		"world", k.World.Seed,
		i(k.World.Persons), i(k.World.Countries), i(k.World.CitiesPer),
		i(k.World.Companies), i(k.World.Univs), i(k.World.Awards),
		i(k.World.Teams), i(k.World.Bands),
		f(k.World.FilmFactor), f(k.World.BookFactor),
		"scale", f(k.Scale),
		"rag", i(k.RAG.NumQuestions), f(k.RAG.Tau), i(k.RAG.SelectedQuestions),
		i(k.RAG.SERPSize), i(k.RAG.SelectedDocs), i(k.RAG.Window),
		i(k.RAG.MaxChunks), i(k.RAG.CandidateCap), strconv.FormatBool(k.RAG.FilterSKG),
		"corpus", strconv.FormatUint(k.Corpus, 16),
		"cell", string(k.Dataset), string(k.Method), k.Model,
	))
}

// cellExt is the snapshot file extension.
const cellExt = ".cell"

// staleTempAge is how old a put-*.tmp file must be before Open reaps it as
// stranded; an in-flight Put holds its temp file for milliseconds.
const staleTempAge = time.Hour

// Store is a content-addressed cell store: an O(1) in-memory cell table,
// optionally backed by a snapshot directory. The zero dir ("") is a pure
// in-memory store. A Store is safe for concurrent use.
//
// Outcome slices are shared between the table and callers on both Get and
// Put; they are treated as immutable once stored.
type Store struct {
	dir string

	// tamper, when set, may rewrite a snapshot's encoded bytes just
	// before they hit disk (deterministic fault injection: corrupt
	// snapshots that the next Open must reject). The in-memory table
	// always keeps the genuine outcomes.
	tamper func(fp uint64, data []byte) []byte

	mu    sync.RWMutex
	cells map[Fingerprint][]strategy.Outcome
}

// NewMemory returns a store with no backing directory: cells live only for
// the process lifetime (used by the web application when no store
// directory is configured).
func NewMemory() *Store {
	return &Store{cells: map[Fingerprint][]strategy.Outcome{}}
}

// Open opens (creating if needed) the snapshot directory and loads every
// valid cell snapshot into the in-memory table. Snapshots that fail to
// decode — truncated, corrupt, wrong version — or whose embedded
// fingerprint does not match their file name are skipped: they count as
// missing cells and are recomputed and rewritten by the next run. All
// snapshots decode through one table, so the loaded cells share each
// repeated string and claim. An empty dir returns a pure in-memory store.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return NewMemory(), nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("results: creating store dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("results: reading store dir: %w", err)
	}
	s := &Store{dir: dir, cells: map[Fingerprint][]strategy.Outcome{}}
	tab := newTable()
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() {
			continue
		}
		if !strings.HasSuffix(name, cellExt) {
			// Reap temp files stranded by a kill between CreateTemp and
			// Rename, so interrupted runs don't grow the directory forever.
			// Only stale files are removed: another process may share the
			// store (CLI run + factcheckd) and hold an in-flight Put whose
			// window is milliseconds — an age threshold keeps the reap from
			// racing its rename.
			if strings.HasPrefix(name, "put-") && strings.HasSuffix(name, ".tmp") {
				if info, err := ent.Info(); err == nil && time.Since(info.ModTime()) > staleTempAge {
					os.Remove(filepath.Join(dir, name))
				}
			}
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("results: reading snapshot %s: %w", name, err)
		}
		fp, outs, err := decode(data, tab)
		if err != nil {
			continue // corrupt or foreign snapshot: treat the cell as missing
		}
		if fp.String()+cellExt != name {
			continue // fingerprint/name mismatch (renamed or tampered file)
		}
		s.cells[fp] = outs
	}
	return s, nil
}

// Dir returns the backing directory ("" for in-memory stores).
func (s *Store) Dir() string { return s.dir }

// SetWriteTamper installs a hook that may rewrite snapshot bytes on their
// way to disk (nil clears it). A chaos harness uses it to write corrupt
// snapshots; the codec's load-time rejection then turns corruption into a
// recomputed cell instead of served garbage. Set before serving traffic —
// the hook is read without synchronisation.
func (s *Store) SetWriteTamper(f func(fp uint64, data []byte) []byte) { s.tamper = f }

// Len returns the number of cells in the table.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.cells)
}

// Get returns the outcomes stored under the fingerprint. The returned
// slice is shared and must not be mutated.
func (s *Store) Get(fp Fingerprint) ([]strategy.Outcome, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	outs, ok := s.cells[fp]
	return outs, ok
}

// Put stores the outcomes under the fingerprint, persisting the snapshot
// atomically and durably when the store is disk-backed: the temp file is
// synced before the rename publishes it, and the directory after, so a
// crash or power loss at any instant leaves the complete snapshot or
// none. The store retains the slice; callers must not mutate it
// afterwards.
func (s *Store) Put(fp Fingerprint, outs []strategy.Outcome) error {
	if s.dir != "" {
		data := Encode(fp, outs)
		if s.tamper != nil {
			data = s.tamper(uint64(fp), data)
		}
		tmp, err := os.CreateTemp(s.dir, "put-*.tmp")
		if err != nil {
			return fmt.Errorf("results: creating snapshot temp file: %w", err)
		}
		if _, err := tmp.Write(data); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return fmt.Errorf("results: writing snapshot: %w", err)
		}
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return fmt.Errorf("results: syncing snapshot: %w", err)
		}
		if err := tmp.Close(); err != nil {
			os.Remove(tmp.Name())
			return fmt.Errorf("results: closing snapshot: %w", err)
		}
		final := filepath.Join(s.dir, fp.String()+cellExt)
		if err := os.Rename(tmp.Name(), final); err != nil {
			os.Remove(tmp.Name())
			return fmt.Errorf("results: publishing snapshot: %w", err)
		}
		if err := syncDir(s.dir); err != nil {
			return fmt.Errorf("results: syncing store dir: %w", err)
		}
	}
	s.mu.Lock()
	s.cells[fp] = outs
	s.mu.Unlock()
	return nil
}

// syncDir flushes a directory's entries, making a rename into it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}
