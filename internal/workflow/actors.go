package workflow

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// FileWatcher is the paper's generic source actor: it "regularly check[s] a
// remote directory for new or modified files, and thus creates an indirect
// connection between the simulation code and the workflow". It emits one
// token per new file matching the glob; emission waits for the file's
// ".done" sentinel when RequireDone is set, mirroring the workflow's
// watching of the S3D log "for an entry indicating that the output for that
// timestep is complete".
type FileWatcher struct {
	ActorName string
	Dir       string
	Glob      string
	Out       Port
	Interval  time.Duration
	// RequireDone gates each file on the existence of path + ".done".
	RequireDone bool
	// Stop ends the watch: when the file Dir/STOP exists and no new files
	// remain, the watcher closes its output.
	StopFile string

	seen map[string]bool
}

// Name implements Actor.
func (w *FileWatcher) Name() string { return w.ActorName }

// Run implements Actor.
func (w *FileWatcher) Run(ctx context.Context, wf *Workflow) error {
	defer close(w.Out)
	if w.seen == nil {
		w.seen = map[string]bool{}
	}
	interval := w.Interval
	if interval == 0 {
		interval = 5 * time.Millisecond
	}
	stop := w.StopFile
	if stop == "" {
		stop = filepath.Join(w.Dir, "STOP")
	}
	for {
		matches, err := filepath.Glob(filepath.Join(w.Dir, w.Glob))
		if err != nil {
			return err
		}
		sort.Strings(matches)
		emitted := 0
		for _, m := range matches {
			if w.seen[m] || strings.HasSuffix(m, ".done") {
				continue
			}
			if w.RequireDone {
				if _, err := os.Stat(m + ".done"); err != nil {
					continue // still being written
				}
			}
			w.seen[m] = true
			emitted++
			wf.Log("watch %s: %s", w.ActorName, filepath.Base(m))
			select {
			case w.Out <- Token{Path: m, Meta: map[string]string{"source": w.ActorName}}:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		if emitted == 0 {
			if _, err := os.Stat(stop); err == nil {
				return nil
			}
		}
		select {
		case <-time.After(interval):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Checkpoint persists the set of completed operations so a restarted
// workflow "skip[s] steps that had already been accomplished, while
// retrying the failed ones" (§9). The record format is one key per line.
type Checkpoint struct {
	Path string

	mu   sync.Mutex
	done map[string]bool
}

// NewCheckpoint loads (or initialises) a checkpoint file.
func NewCheckpoint(path string) (*Checkpoint, error) {
	c := &Checkpoint{Path: path, done: map[string]bool{}}
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return c, nil
		}
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			c.done[line] = true
		}
	}
	return c, sc.Err()
}

// Done reports whether the key completed in a previous run.
func (c *Checkpoint) Done(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.done[key]
}

// Mark records a completed key durably.
func (c *Checkpoint) Mark(key string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done[key] {
		return nil
	}
	f, err := os.OpenFile(c.Path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintln(f, key); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	c.done[key] = true
	return nil
}

// Op is the remote command a ProcessFile stage models: it transforms an
// input file path into an output path (the ssh-executed tar/scp/python of
// §9 becomes an in-process function against the simulated cluster tree).
type Op func(in string) (out string, err error)

// processRetries is how many attempts a ProcessFile stage makes per token.
const processRetries = 3

// ProcessFile is the paper's workhorse actor: it "models the execution of
// an operation on a remote file", keeps "a checkpoint on the successfully
// executed actions, writes operation errors into log files", and retries
// failures on restart without any extra workflow logic.
type ProcessFile struct {
	ActorName string
	In        Port
	Out       Port // may be nil for terminal stages
	Op        Op
	Ckpt      *Checkpoint
	ErrLog    string

	// OutputOf recomputes the output path for a checkpointed (skipped)
	// token so downstream stages still receive it; nil forwards the input.
	OutputOf func(in string) string
}

// Name implements Actor.
func (p *ProcessFile) Name() string { return p.ActorName }

// Run implements Actor.
func (p *ProcessFile) Run(ctx context.Context, wf *Workflow) error {
	if p.Out != nil {
		defer close(p.Out)
	}
	for {
		var tok Token
		var ok bool
		select {
		case tok, ok = <-p.In:
			if !ok {
				return nil
			}
		case <-ctx.Done():
			return ctx.Err()
		}

		key := p.ActorName + " " + tok.Path
		var outPath string
		if p.Ckpt != nil && p.Ckpt.Done(key) {
			wf.Log("%s: skip (checkpointed) %s", p.ActorName, filepath.Base(tok.Path))
			if p.OutputOf != nil {
				outPath = p.OutputOf(tok.Path)
			} else {
				outPath = tok.Path
			}
		} else {
			var err error
			for attempt := 1; attempt <= processRetries; attempt++ {
				outPath, err = p.Op(tok.Path)
				if err == nil {
					break
				}
				p.logError(fmt.Sprintf("%s attempt %d on %s: %v", p.ActorName, attempt, tok.Path, err))
			}
			if err != nil {
				// Leave the token unmarked: a restarted workflow retries it.
				wf.Log("%s: FAILED %s", p.ActorName, filepath.Base(tok.Path))
				continue
			}
			if p.Ckpt != nil {
				if err := p.Ckpt.Mark(key); err != nil {
					return err
				}
			}
			wf.Log("%s: done %s", p.ActorName, filepath.Base(tok.Path))
		}
		if p.Out != nil {
			select {
			case p.Out <- tok.WithMeta(p.ActorName, outPath).WithMeta("path", outPath).withPath(outPath):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
}

func (t Token) withPath(p string) Token {
	t.Path = p
	return t
}

func (p *ProcessFile) logError(msg string) {
	if p.ErrLog == "" {
		return
	}
	f, err := os.OpenFile(p.ErrLog, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return
	}
	fmt.Fprintln(f, msg)
	f.Close()
}
