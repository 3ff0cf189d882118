// Package workflow is an actor-oriented scientific workflow engine in the
// style of Kepler/Ptolemy II (paper §9): data-centric actors connected by
// token streams, executed by a process-network director, with the
// checkpointed, retrying ProcessFile stage and the FileWatcher source actor
// the paper built for the S3D monitoring workflow. The package also
// assembles that workflow: three concurrent pipelines (restart/analysis
// morphing and archival, netcdf-style plotting, min/max dashboard feeds)
// over a simulated jaguar → ewok → HPSS/Sandia topology.
package workflow

import (
	"context"
	"fmt"
	"sync"
)

// Token is the unit of data flowing between actors: a file reference plus
// free-form provenance metadata.
type Token struct {
	Path string
	Meta map[string]string
}

// WithMeta returns a copy of the token with an added metadata entry, so
// provenance accumulates as tokens traverse the graph.
func (t Token) WithMeta(k, v string) Token {
	m := make(map[string]string, len(t.Meta)+1)
	for key, val := range t.Meta {
		m[key] = val
	}
	m[k] = v
	return Token{Path: t.Path, Meta: m}
}

// Port is a buffered token stream between actors.
type Port chan Token

// NewPort creates a port with the standard buffering.
func NewPort() Port { return make(Port, 64) }

// Actor is a workflow component. Run consumes inputs and produces outputs
// until its input stream closes or the context is cancelled; it must close
// its output ports (via the provided helper) when done.
type Actor interface {
	Name() string
	Run(ctx context.Context, wf *Workflow) error
}

// Workflow is a graph of actors under a process-network director: every
// actor runs as its own goroutine, synchronised purely by port
// communication (the "actor-oriented modelling" separation of concerns the
// paper highlights).
type Workflow struct {
	Name   string
	actors []Actor

	mu     sync.Mutex
	events []string // coarse execution log, usable as provenance
}

// New creates an empty workflow.
func New(name string) *Workflow { return &Workflow{Name: name} }

// Add registers actors.
func (wf *Workflow) Add(actors ...Actor) {
	wf.actors = append(wf.actors, actors...)
}

// Log records a provenance/progress event.
func (wf *Workflow) Log(format string, args ...any) {
	wf.mu.Lock()
	wf.events = append(wf.events, fmt.Sprintf(format, args...))
	wf.mu.Unlock()
}

// Events returns a snapshot of the execution log.
func (wf *Workflow) Events() []string {
	wf.mu.Lock()
	defer wf.mu.Unlock()
	return append([]string(nil), wf.events...)
}

// Run executes all actors to completion under the PN director, returning
// the first actor error (all actors are always waited for, so no goroutine
// leaks survive a failure).
func (wf *Workflow) Run(ctx context.Context) error {
	errs := make([]error, len(wf.actors))
	var wg sync.WaitGroup
	wg.Add(len(wf.actors))
	for i, a := range wf.actors {
		go func(i int, a Actor) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[i] = fmt.Errorf("workflow: actor %s panicked: %v", a.Name(), p)
				}
			}()
			if err := a.Run(ctx, wf); err != nil {
				errs[i] = fmt.Errorf("workflow: actor %s: %w", a.Name(), err)
			}
		}(i, a)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Fan duplicates one input stream onto several outputs (used where one
// pipeline stage feeds both the archive and the analysis transfer, as in
// figure 16).
type Fan struct {
	ActorName string
	In        Port
	Out       []Port
}

// Name implements Actor.
func (f *Fan) Name() string { return f.ActorName }

// Run implements Actor.
func (f *Fan) Run(ctx context.Context, wf *Workflow) error {
	defer func() {
		for _, o := range f.Out {
			close(o)
		}
	}()
	for {
		select {
		case tok, ok := <-f.In:
			if !ok {
				return nil
			}
			for _, o := range f.Out {
				select {
				case o <- tok:
				case <-ctx.Done():
					return ctx.Err()
				}
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Collect drains a port into memory (a test/monitoring sink).
type Collect struct {
	ActorName string
	In        Port

	mu     sync.Mutex
	tokens []Token
}

// Name implements Actor.
func (c *Collect) Name() string { return c.ActorName }

// Run implements Actor.
func (c *Collect) Run(ctx context.Context, wf *Workflow) error {
	for {
		select {
		case tok, ok := <-c.In:
			if !ok {
				return nil
			}
			c.mu.Lock()
			c.tokens = append(c.tokens, tok)
			c.mu.Unlock()
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Tokens returns the collected tokens.
func (c *Collect) Tokens() []Token {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Token(nil), c.tokens...)
}
