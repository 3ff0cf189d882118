package insitu

import "github.com/s3dgo/s3d/internal/jsonl"

// Store is the append-only analysis.jsonl sink (see jsonl.Store: one Record
// per line, flushed per append, readable while the run is in flight).
type Store = jsonl.Store[Record]

// CreateStore creates (truncating) the analysis store at path.
func CreateStore(path string) (*Store, error) { return jsonl.Create[Record](path) }

// ReadAnalysis loads every record of an analysis.jsonl store under
// jsonl.Read's corrupt-tail contract.
func ReadAnalysis(path string) ([]Record, error) { return jsonl.Read[Record]("insitu", path) }
