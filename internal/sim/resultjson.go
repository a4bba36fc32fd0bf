package sim

import (
	"encoding/json"
	"fmt"
)

// ResultSchema is the identifier embedded in every marshaled Result. The
// suffix is the schema version: it changes only when a field is removed or
// its meaning changes; adding fields is backward compatible within a
// version. The json tags on Result, stats.Stats, regfile.Stats and
// energy.Events are the stable contract: consumers (cmd/warpedreport,
// BENCH_*.json tooling) must key on them, never on Go struct field names.
// The full schema is documented in DESIGN.md §"Result JSON schema".
const ResultSchema = "warped.sim.result/v1"

// resultFields is Result without its JSON methods, so encoding/json reads
// the wire names from the tags.
type resultFields Result

// resultDoc is the v1 document: the schema identifier, then the tagged
// fields of Result.
type resultDoc struct {
	Schema string `json:"schema"`
	resultFields
}

// MarshalJSON encodes the Result under the versioned v1 schema
// (ResultSchema).
func (r *Result) MarshalJSON() ([]byte, error) {
	return json.Marshal(resultDoc{ResultSchema, resultFields(*r)})
}

// UnmarshalJSON decodes any v1-schema document and rejects every other
// schema, leaving r untouched on error. Unknown fields are ignored, and a
// count array shorter or longer than this build's is zero-filled or
// truncated, so documents of older and newer v1 writers decode.
func (r *Result) UnmarshalJSON(data []byte) error {
	var doc resultDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	if doc.Schema != ResultSchema {
		return fmt.Errorf("sim: unsupported result schema %q (want %q)", doc.Schema, ResultSchema)
	}
	*r = Result(doc.resultFields)
	return nil
}
