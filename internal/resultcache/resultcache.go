// Package resultcache is the persistent cross-run memo store: a
// content-addressed on-disk cache that makes repeated experiment cells
// free across process invocations, CI runs and concurrent users sharing
// one store directory.
//
// Each entry holds one replicate's canonical JSON result row, keyed by
// (schema version, canonical cell key, effective replicate seed). The
// key material is hashed to the entry's file name,
// so the store is a flat directory of self-describing files: no index
// to corrupt, no lock to take for reads, and concurrent writers of the
// same key converge on identical content.
//
// Trust model: the store accelerates, it never decides. Every read
// re-verifies the entry — schema version, embedded key fields and a
// SHA-256 over the payload — and any mismatch surfaces as a typed error
// (*CorruptError, *SchemaError) the caller treats exactly like a miss:
// recompute, overwrite, move on. A tampered or torn entry can cost a
// recomputation; it can never produce a wrong result. Writes go through
// a temp file and an atomic rename, so readers — including other
// processes — never observe a partial entry.
package resultcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
)

// SchemaVersion names the entry format. It participates in the key
// hash, so bumping it orphans every older entry (they are never read
// again — Prune removes them) rather than risking a misparse. Version 2
// dropped the flow-solver version from the key: the simulator has one
// solver, and results computed under the retired one must not be served
// as its output.
const SchemaVersion = 2

// Key identifies one replicate result.
type Key struct {
	// Cell is the canonical scenario key (scenario.Key) of the
	// effective, fully reseeded spec.
	Cell string
	// Seed is the effective replicate seed (the cell's own seed for
	// replicate 0, the derived seed otherwise).
	Seed uint64
}

// material renders the canonical key material the entry file name is
// hashed from.
func (k Key) material() string {
	return fmt.Sprintf("s%d|%s|seed=%d", SchemaVersion, k.Cell, k.Seed)
}

// id is the content address: the hex SHA-256 of the key material.
func (k Key) id() string {
	sum := sha256.Sum256([]byte(k.material()))
	return hex.EncodeToString(sum[:])
}

// entry is the on-disk envelope around one result row.
type entry struct {
	Schema int             `json:"schema"`
	Cell   string          `json:"cell"`
	Seed   uint64          `json:"seed"`
	Sum    string          `json:"sha256"` // hex SHA-256 of Row
	Row    json.RawMessage `json:"row"`
}

// ErrMiss reports that no entry exists for the key. It is the only
// Get error that does not imply a damaged store.
var ErrMiss = errors.New("resultcache: miss")

// CorruptError reports an entry that exists but failed verification:
// unparseable JSON, a checksum mismatch, or key fields that disagree
// with the requested key. Callers recompute and overwrite.
type CorruptError struct {
	Path   string
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("resultcache: corrupt entry %s: %s", e.Path, e.Reason)
}

// SchemaError reports an entry written under a different schema
// version. Under the hashed-key scheme this only happens when a file
// was renamed or planted; either way the entry is unusable and callers
// recompute.
type SchemaError struct {
	Path      string
	Got, Want int
}

func (e *SchemaError) Error() string {
	return fmt.Sprintf("resultcache: entry %s has schema %d, want %d", e.Path, e.Got, e.Want)
}

// Store is one cache directory. Methods are safe for concurrent use
// within a process, and the on-disk format is safe across processes.
type Store struct {
	dir    string
	hits   atomic.Int64
	misses atomic.Int64
}

// Open returns the store rooted at dir, creating it if needed.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("resultcache: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir reports the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) path(k Key) string {
	return filepath.Join(s.dir, k.id()+".json")
}

// Get returns the stored row bytes for k. A missing entry returns
// ErrMiss; a damaged one returns *CorruptError or *SchemaError. Every
// hit is re-verified: schema version, embedded key fields and the
// payload checksum must all agree before a byte is returned.
func (s *Store) Get(k Key) ([]byte, error) {
	path := s.path(k)
	data, err := os.ReadFile(path)
	if err != nil {
		s.misses.Add(1)
		if os.IsNotExist(err) {
			return nil, ErrMiss
		}
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	row, err := verify(path, data, &k)
	if err != nil {
		s.misses.Add(1)
		return nil, err
	}
	s.hits.Add(1)
	return row, nil
}

// verify decodes and checks one entry. want, when non-nil, pins the
// embedded key fields to the requested key.
func verify(path string, data []byte, want *Key) (json.RawMessage, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var e entry
	if err := dec.Decode(&e); err != nil {
		return nil, &CorruptError{Path: path, Reason: "undecodable: " + err.Error()}
	}
	if e.Schema != SchemaVersion {
		return nil, &SchemaError{Path: path, Got: e.Schema, Want: SchemaVersion}
	}
	if want != nil && (e.Cell != want.Cell || e.Seed != want.Seed) {
		return nil, &CorruptError{Path: path, Reason: "entry key does not match requested key"}
	}
	sum := sha256.Sum256(e.Row)
	if hex.EncodeToString(sum[:]) != e.Sum {
		return nil, &CorruptError{Path: path, Reason: "payload checksum mismatch"}
	}
	return e.Row, nil
}

// Put stores row under k, overwriting any existing entry. The write is
// atomic (temp file + rename), so concurrent readers and writers —
// including other processes sharing the store — never see a torn entry.
func (s *Store) Put(k Key, row []byte) error {
	sum := sha256.Sum256(row)
	e := entry{
		Schema: SchemaVersion,
		Cell:   k.Cell,
		Seed:   k.Seed,
		Sum:    hex.EncodeToString(sum[:]),
		Row:    json.RawMessage(row),
	}
	data, err := json.Marshal(&e)
	if err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	tmp, err := os.CreateTemp(s.dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("resultcache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultcache: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path(k)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultcache: %w", err)
	}
	return nil
}

// Keys lists every readable entry's key in sorted file-name order —
// iteration order is a pure function of the store's contents, never of
// directory-read or map order. Entries that fail verification are
// skipped and reported via the returned error (the first one found);
// the key list is still valid for the readable remainder.
func (s *Store) Keys() ([]Key, error) {
	names, err := s.entryNames()
	if err != nil {
		return nil, err
	}
	var keys []Key
	var firstErr error
	for _, name := range names {
		path := filepath.Join(s.dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("resultcache: %w", err)
			}
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var e entry
		if err := dec.Decode(&e); err != nil {
			if firstErr == nil {
				firstErr = &CorruptError{Path: path, Reason: "undecodable: " + err.Error()}
			}
			continue
		}
		if e.Schema != SchemaVersion {
			if firstErr == nil {
				firstErr = &SchemaError{Path: path, Got: e.Schema, Want: SchemaVersion}
			}
			continue
		}
		keys = append(keys, Key{Cell: e.Cell, Seed: e.Seed})
	}
	return keys, firstErr
}

// Len counts the store's entries (readable or not; temp files are
// excluded).
func (s *Store) Len() (int, error) {
	names, err := s.entryNames()
	if err != nil {
		return 0, err
	}
	return len(names), nil
}

// Prune removes entries that are unreadable or were written under a
// different schema version, returning how many were removed. A shared
// store accretes these after a schema bump (old entries are orphaned by
// the key hash) or a tampering incident.
func (s *Store) Prune() (int, error) {
	names, err := s.entryNames()
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, name := range names {
		path := filepath.Join(s.dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		if _, verr := verify(path, data, nil); verr != nil {
			if rerr := os.Remove(path); rerr == nil {
				removed++
			}
		}
	}
	return removed, nil
}

// entryNames lists the store's entry file names in sorted order.
func (s *Store) entryNames() ([]string, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	var names []string
	for _, ent := range ents {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".json") {
			continue
		}
		names = append(names, ent.Name())
	}
	sort.Strings(names)
	return names, nil
}

// Stats reports the store's hit and miss counters for this process
// (misses include corrupt and schema-mismatched entries, which cost a
// recomputation exactly like a miss).
func (s *Store) Stats() (hits, misses int64) {
	return s.hits.Load(), s.misses.Load()
}
