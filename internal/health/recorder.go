package health

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Slice is a coarse 2-D field snapshot stored with each flight-recorder
// frame — enough to see where the run went bad without a full savefile.
type Slice struct {
	Name string `json:"name"` // e.g. "T@z=mid"
	Nx   int    `json:"nx"`
	Ny   int    `json:"ny"`
	Data []F    `json:"data"` // Nx·Ny values, x-fastest
}

// Frame is one step's flight-recorder entry: the full sample, every
// check's post-hysteresis state and an optional field slice.
type Frame struct {
	Step   int                    `json:"step"`
	Time   F                      `json:"time"`
	Dt     F                      `json:"dt"`
	Level  string                 `json:"level"`
	Sample Sample                 `json:"sample"`
	Checks map[string]CheckStatus `json:"checks"`
	Slice  *Slice                 `json:"slice,omitempty"`
}

// Recorder is the ring-buffer flight recorder: it keeps the last N frames
// so a post-mortem shows the steps leading up to a trip, not just the
// step that tripped. Add has a single owner; Frames and Dump are safe for
// concurrent readers.
type Recorder struct {
	mu     sync.Mutex
	frames []Frame
	next   int
	filled bool
}

// NewRecorder builds a recorder holding the last n frames (n ≥ 1).
func NewRecorder(n int) *Recorder {
	if n < 1 {
		n = 1
	}
	return &Recorder{frames: make([]Frame, n)}
}

// Add appends a frame, evicting the oldest once the ring is full.
func (r *Recorder) Add(f Frame) {
	r.mu.Lock()
	r.frames[r.next] = f
	r.next++
	if r.next == len(r.frames) {
		r.next = 0
		r.filled = true
	}
	r.mu.Unlock()
}

// Frames returns the recorded frames oldest-first.
func (r *Recorder) Frames() []Frame {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Frame
	if r.filled {
		out = append(out, r.frames[r.next:]...)
	}
	out = append(out, r.frames[:r.next]...)
	return out
}

// Len returns the number of recorded frames (≤ Cap).
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.filled {
		return len(r.frames)
	}
	return r.next
}

// Dump writes the post-mortem bundle into dir: flight.jsonl (one frame
// per line, oldest first) and violation.json (the final status document
// including the fatal cause). The solver layer adds the emergency
// checkpoint alongside; health itself has no field state to save.
func (w *Watchdog) Dump(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "flight.jsonl"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, frame := range w.rec.Frames() {
		b, err := json.Marshal(frame)
		if err != nil {
			f.Close()
			return err
		}
		b = append(b, '\n')
		if _, err := bw.Write(b); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	st := w.Status()
	b, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "violation.json"), append(b, '\n'), 0o644)
}

// ReadFlight parses a flight.jsonl back into frames (post-mortem tooling
// and tests).
func ReadFlight(path string) ([]Frame, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Frame
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var fr Frame
		if err := json.Unmarshal([]byte(text), &fr); err != nil {
			return out, fmt.Errorf("health: flight line %d: %w", line, err)
		}
		out = append(out, fr)
	}
	return out, sc.Err()
}
