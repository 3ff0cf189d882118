package cost

import "github.com/s3dgo/s3d/internal/jsonl"

// Store is the append-only cost.jsonl sink (see jsonl.Store: one Record per
// line, flushed per append, readable while the run is in flight).
type Store = jsonl.Store[Record]

// CreateStore creates (truncating) the cost store at path.
func CreateStore(path string) (*Store, error) { return jsonl.Create[Record](path) }

// ReadCost loads every record of a cost.jsonl store under jsonl.Read's
// corrupt-tail contract.
func ReadCost(path string) ([]Record, error) { return jsonl.Read[Record]("cost", path) }
