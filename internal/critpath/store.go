package critpath

import "github.com/s3dgo/s3d/internal/jsonl"

// Store is the append-only critpath.jsonl sink (see jsonl.Store: one Record
// per analyzed step, flushed per append, readable while the run is in flight).
type Store = jsonl.Store[Record]

// CreateStore creates (truncating) the critpath store at path.
func CreateStore(path string) (*Store, error) { return jsonl.Create[Record](path) }

// ReadCritPath loads every record of a critpath.jsonl store under
// jsonl.Read's corrupt-tail contract.
func ReadCritPath(path string) ([]Record, error) { return jsonl.Read[Record]("critpath", path) }
