// Package novelty implements the novelty-analysis filter (Sect. V-B):
// change detection over already-reported beaconing cases. A candidate is
// forwarded to ranking only when its destination has never been reported
// before, or when a new source starts beaconing to a previously reported
// destination. Suppressed candidates remain logged for analyst review. The
// store persists as JSON so daily pipeline runs accumulate state.
package novelty

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"baywatch/internal/durable"
)

// Store tracks reported destinations and source/destination pairs. It is
// safe for concurrent use.
type Store struct {
	mu    sync.Mutex
	dests map[string]struct{}
	pairs map[string]struct{}
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		dests: make(map[string]struct{}),
		pairs: make(map[string]struct{}),
	}
}

// Verdict classifies a candidate's novelty.
type Verdict int

const (
	// NewDestination means the destination has never been reported.
	NewDestination Verdict = iota + 1
	// NewSource means the destination is known but this source is new.
	NewSource
	// Duplicate means the exact pair was already reported.
	Duplicate
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case NewDestination:
		return "new-destination"
	case NewSource:
		return "new-source"
	case Duplicate:
		return "duplicate"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

func pairKey(source, dest string) string { return source + "|" + dest }

// Check returns the candidate's novelty without recording it.
func (s *Store) Check(source, dest string) Verdict {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.pairs[pairKey(source, dest)]; ok {
		return Duplicate
	}
	if _, ok := s.dests[dest]; ok {
		return NewSource
	}
	return NewDestination
}

// IsNovel reports whether the pair should be forwarded to ranking: the
// paper forwards a case "only when a destination has not been reported
// before, or a source has not been reported before as beaconing to that
// destination".
func (s *Store) IsNovel(source, dest string) bool {
	return s.Check(source, dest) != Duplicate
}

// MarkReported records that the pair has been reported.
func (s *Store) MarkReported(source, dest string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dests[dest] = struct{}{}
	s.pairs[pairKey(source, dest)] = struct{}{}
}

// Clone returns an independent deep copy of the store's state. Callers
// that must roll back after a failed persistence step (e.g. the opsloop's
// day commit) clone before mutating and restore the clone on error.
func (s *Store) Clone() *Store {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := NewStore()
	for d := range s.dests {
		c.dests[d] = struct{}{}
	}
	for p := range s.pairs {
		c.pairs[p] = struct{}{}
	}
	return c
}

// Size returns the numbers of recorded destinations and pairs.
func (s *Store) Size() (dests, pairs int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.dests), len(s.pairs)
}

// snapshot is the JSON persistence format.
type snapshot struct {
	Destinations []string `json:"destinations"`
	Pairs        []string `json:"pairs"`
}

// Save writes the store to path atomically and durably
// (durable.WriteFile).
func (s *Store) Save(path string) error {
	s.mu.Lock()
	snap := snapshot{
		Destinations: make([]string, 0, len(s.dests)),
		Pairs:        make([]string, 0, len(s.pairs)),
	}
	for d := range s.dests {
		snap.Destinations = append(snap.Destinations, d)
	}
	for p := range s.pairs {
		snap.Pairs = append(snap.Pairs, p)
	}
	s.mu.Unlock()
	sort.Strings(snap.Destinations)
	sort.Strings(snap.Pairs)

	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return fmt.Errorf("novelty: marshal: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("novelty: mkdir: %w", err)
	}
	if err := durable.WriteFile(path, data, durable.Points{}); err != nil {
		return fmt.Errorf("novelty: %w", err)
	}
	return nil
}

// Load reads a store previously written by Save. A missing file yields an
// empty store, so first-run pipelines need no special casing.
func Load(path string) (*Store, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return NewStore(), nil
	}
	if err != nil {
		return nil, fmt.Errorf("novelty: read: %w", err)
	}
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("novelty: parse: %w", err)
	}
	s := NewStore()
	for _, d := range snap.Destinations {
		s.dests[d] = struct{}{}
	}
	for _, p := range snap.Pairs {
		s.pairs[p] = struct{}{}
	}
	return s, nil
}
