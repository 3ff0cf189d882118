package pario

import (
	"fmt"

	"github.com/s3dgo/s3d/internal/comm"
)

// The materialisation path runs real bytes through each write method and
// produces the shared-file image, verifying the global canonical-order
// invariant of figure 8: whatever the transport (two-phase exchange, the
// cache-page protocol, the write-behind protocol), the resulting file must
// be byte-identical to writing every request directly at its canonical
// offset.

// eachRequest invokes fn for every contiguous request of rank p with the
// request's canonical file offset and payload.
func (k Kernel) eachRequest(p int, fn func(off int64, data []byte)) {
	seq := uint32(0)
	for _, r := range k.Runs(p) {
		buf := make([]byte, r.Bytes)
		for c := 0; c < r.Count; c++ {
			for b := int64(0); b < r.Bytes; b += wordBytes {
				v := patternWord(p, seq)
				for i := 0; i < wordBytes; i++ {
					buf[b+int64(i)] = byte(v >> (8 * uint(i)))
				}
				seq++
			}
			fn(r.Offset+int64(c)*r.Stride, buf)
			// fn may retain nothing; reuse buf for the next request.
		}
	}
}

// MaterializeDirect writes every rank's requests straight into the image.
func (k Kernel) MaterializeDirect() []byte {
	img := make([]byte, k.FileBytes())
	for p := 0; p < k.NumProcs(); p++ {
		k.eachRequest(p, func(off int64, data []byte) {
			copy(img[off:], data)
		})
	}
	return img
}

// MaterializeCollective routes the data through two-phase aggregation:
// aggregator a owns the contiguous file range [a·chunk, (a+1)·chunk);
// every rank ships the intersecting pieces, then aggregators write their
// ranges contiguously.
func (k Kernel) MaterializeCollective() []byte {
	np := k.NumProcs()
	fileBytes := k.FileBytes()
	chunk := fileBytes / int64(np)
	// Aggregator buffers (the last takes the remainder).
	bufs := make([][]byte, np)
	starts := make([]int64, np)
	for a := 0; a < np; a++ {
		starts[a] = int64(a) * chunk
		end := starts[a] + chunk
		if a == np-1 {
			end = fileBytes
		}
		bufs[a] = make([]byte, end-starts[a])
	}
	for p := 0; p < np; p++ {
		k.eachRequest(p, func(off int64, data []byte) {
			// Split the request across aggregator domains.
			pos := int64(0)
			for pos < int64(len(data)) {
				a := int((off + pos) / chunk)
				if a >= np {
					a = np - 1
				}
				domEnd := starts[a] + int64(len(bufs[a]))
				n := min64(int64(len(data))-pos, domEnd-(off+pos))
				copy(bufs[a][off+pos-starts[a]:], data[pos:pos+n])
				pos += n
			}
		})
	}
	img := make([]byte, fileBytes)
	for a := 0; a < np; a++ {
		copy(img[starts[a]:], bufs[a])
	}
	return img
}

// client is what the live write paths (CacheClient, WriteBehindClient) share.
type client interface {
	Write(off int64, data []byte) error
	Close()
}

// writeThrough runs the checkpoint pattern through a live client protocol:
// one rank per process of the kernel on a fresh comm world, each writing its
// requests through the client open builds for it over the one shared file.
// It returns the file left once every rank has closed.
func (k Kernel) writeThrough(open func(*comm.Comm, *SharedFile) client) (*SharedFile, error) {
	file := NewSharedFile(k.FileBytes())
	err := comm.NewWorld(k.NumProcs()).Run(func(c *comm.Comm) {
		cl := open(c, file)
		k.eachRequest(c.Rank(), func(off int64, data []byte) {
			if err := cl.Write(off, data); err != nil {
				panic(err)
			}
		})
		cl.Close()
	})
	return file, err
}

// VerifyImages compares the image every shared-file method leaves against
// the direct canonical image, returning an error naming the first divergent
// method and offset. The §5.1 caching and §5.2 write-behind images come out
// of the live CacheClient and WriteBehindClient protocols.
func (k Kernel) VerifyImages(pageBytes, subBufBytes int64) error {
	ref := k.MaterializeDirect()
	check := func(name string, img []byte) error {
		if len(img) != len(ref) {
			return fmt.Errorf("pario: %s image size %d, want %d", name, len(img), len(ref))
		}
		for i := range img {
			if img[i] != ref[i] {
				return fmt.Errorf("pario: %s image diverges at offset %d", name, i)
			}
		}
		return nil
	}
	if err := check("collective", k.MaterializeCollective()); err != nil {
		return err
	}
	live := func(name string, open func(*comm.Comm, *SharedFile) client) error {
		file, err := k.writeThrough(open)
		if err != nil {
			return err
		}
		return check(name, file.Bytes())
	}
	if err := live("caching", func(c *comm.Comm, f *SharedFile) client {
		return NewCacheClient(c, f, CacheConfig{PageBytes: pageBytes})
	}); err != nil {
		return err
	}
	return live("writebehind", func(c *comm.Comm, f *SharedFile) client {
		return NewWriteBehindClient(c, f, pageBytes, subBufBytes)
	})
}
