package health

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sync"

	"github.com/s3dgo/s3d/internal/jsonl"
	"github.com/s3dgo/s3d/internal/sdf"
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
	err := sdf.WriteAtomic(filepath.Join(dir, "flight.jsonl"), func(out io.Writer) error {
		enc := json.NewEncoder(out)
		for _, frame := range w.rec.Frames() {
			if err := enc.Encode(frame); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(w.Status(), "", "  ")
	if err != nil {
		return err
	}
	return sdf.WriteAtomic(filepath.Join(dir, "violation.json"), func(out io.Writer) error {
		_, err := out.Write(append(b, '\n'))
		return err
	})
}

// ReadFlight parses a flight.jsonl back into frames (post-mortem tooling
// and tests) under jsonl.Read's corrupt-tail contract: the bundle is read
// after a crash, so a truncated final line costs that frame alone.
func ReadFlight(path string) ([]Frame, error) { return jsonl.Read[Frame]("health", path) }
