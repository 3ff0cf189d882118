package sdf

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// hostileHeader is a 33-byte stream declaring one unnamed variable with the
// given dims and no data: what a corrupt checkpoint header looks like.
func hostileHeader(dims ...uint32) []byte {
	b := append([]byte(nil), magic[:]...)
	b = append(b, version)
	for _, v := range append([]uint32{0, 1, 0, uint32(len(dims))}, dims...) { // attrs, vars, name length, nd
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return b
}

// FuzzDecode: Decode is the checkpoint read path, so any byte stream must
// come back as an error or as a dataset whose variables hold exactly the
// values their dims declare — never a panic. The two hostile seeds are dims
// whose product wraps an int: [2^31, 2^31, 2] to a negative length and
// [2^31, 2^31, 4] to zero.
func FuzzDecode(f *testing.F) {
	ds := New()
	ds.Attrs["step"] = "7"
	_ = ds.AddVar("u", []int{2, 3}, []float64{1, 2, 3, 4, 5, 6})
	_ = ds.AddVar("empty", []int{0, 4}, nil)
	var buf bytes.Buffer
	if err := ds.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	for n := 0; n <= len(valid); n++ {
		f.Add(valid[:n])
	}
	f.Add(hostileHeader(1<<31, 1<<31, 2))
	f.Add(hostileHeader(1<<31, 1<<31, 4))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, v := range got.Vars {
			want := 1
			for _, d := range v.Dims {
				if d < 0 || (d != 0 && want > maxValues/d) {
					t.Fatalf("accepted variable %q with dims %v", v.Name, v.Dims)
				}
				want *= d
			}
			if len(v.Data) != want {
				t.Fatalf("variable %q: dims %v declare %d values, Data holds %d", v.Name, v.Dims, want, len(v.Data))
			}
		}
	})
}
