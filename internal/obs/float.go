package obs

import (
	"encoding/json"
	"fmt"
	"math"
)

// F is a float64 that survives JSON round-trips even when non-finite.
// encoding/json rejects NaN and ±Inf, but the records that say why a run
// died — the fatal step, the final metrics, the flight recorder — are the
// ones that carry them; they encode as the strings "NaN", "+Inf" and "-Inf".
// A finite value encodes exactly as encoding/json encodes a float64.
type F float64

// MarshalJSON encodes non-finite values as strings.
func (f F) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON accepts both plain numbers and the non-finite strings.
func (f *F) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		switch s {
		case "NaN":
			*f = F(math.NaN())
		case "+Inf", "Inf":
			*f = F(math.Inf(1))
		case "-Inf":
			*f = F(math.Inf(-1))
		default:
			return fmt.Errorf("obs: bad float string %q", s)
		}
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = F(v)
	return nil
}
