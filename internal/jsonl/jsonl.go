// Package jsonl is the one JSONL writer and the one JSONL reader of the
// tree. Store lands one record per line a line at a time, so a killed run
// keeps every completed record; its one per-run stream is the run trace
// (obs.Trace), which carries the step records and the analysis, cost and
// critpath records alike. Every reader — obs.ReadTrace and the post-mortem
// flight recording (health.ReadFlight) included — shares one corrupt-tail
// contract: a run killed mid-write leaves a truncated final line, and the
// valid prefix must still load.
package jsonl

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
)

// Store is an append-only JSONL sink: one record per line, each line handed
// to the writer whole and at once, so the file stays live for the dashboard
// and for tail -f while the run is in flight and a killed run loses at most
// the record it was writing. Methods are safe for concurrent use.
type Store[T any] struct {
	mu  sync.Mutex
	enc *json.Encoder
	c   io.Closer // nil when the caller owns the writer
}

// New wraps a writer the caller owns: Close leaves it open.
func New[T any](w io.Writer) *Store[T] { return &Store[T]{enc: json.NewEncoder(w)} }

// Create creates (truncating) a store at path; Close closes the file.
func Create[T any](path string) (*Store[T], error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &Store[T]{enc: json.NewEncoder(f), c: f}, nil
}

// Append writes one record as a JSON line — json.Marshal's bytes and a
// newline, encoded in a pooled buffer and written with one Write. After a
// failed write every later Append returns that error.
func (s *Store[T]) Append(r T) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.enc.Encode(r)
}

// Close closes the file of a store made by Create; every appended record is
// already written.
func (s *Store[T]) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.c == nil {
		return nil
	}
	return s.c.Close()
}

// Read loads every record of a JSONL store, tolerating a corrupt tail:
// unparseable lines with no valid record after them (the truncated-tail
// case, including an over-long final fragment) are dropped silently and the
// prefix is returned with a nil error. An unparseable line *followed by*
// valid records means mid-stream corruption: the valid prefix before the
// damage is returned along with an error naming the line, prefixed with pkg
// (the owning package, for error attribution).
func Read[T any](pkg, path string) ([]T, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadFrom[T](pkg+": "+path+":", f)
}

// ReadFrom is Read over an open stream — the one scanner loop under every
// JSONL reader in the tree. at is how a damage error opens: it is followed
// by the line number, ": " and the cause ("obs: trace line " gives
// "obs: trace line 7: unexpected end of JSON input").
func ReadFrom[T any](at string, r io.Reader) ([]T, error) { return read[T](at, r, maxLine) }

// maxLine is the longest record line the readers accept (16 MiB).
const maxLine = 1 << 24

// read is ReadFrom with the longest accepted line as a parameter (FuzzRead
// lowers it so an over-long line fits a small input).
func read[T any](at string, r io.Reader, limit int) ([]T, error) {
	var recs []T
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, min(1<<20, limit)), limit)
	line := 0
	var badErr error
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var r T
		if err := json.Unmarshal([]byte(text), &r); err != nil {
			if badErr == nil {
				badErr = fmt.Errorf("%s%d: %w", at, line, err)
			}
			continue
		}
		if badErr != nil {
			// Valid data after the damage: not a truncated tail.
			return recs, badErr
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil && err != bufio.ErrTooLong {
		return recs, err
	}
	return recs, nil
}
