package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Binary trace codec: the text format is greppable but costs ~60 bytes and
// a strconv per field; replaying the paper's full-size traces (millions of
// records) benefits from a compact framing. The format is:
//
//	magic "SCTR" | version byte (1)
//	per record: uvarint(timeDelta) varint(client) uvarint(size)
//	            varint(version) uvarint(len(url)) url bytes
//
// uvarint is encoding/binary's unsigned varint and varint its zig-zag
// signed one. timeDelta is the record's time minus the previous record's
// (zero for the first); every other field is stored as is. Deltas exploit
// monotone timestamps; URLs are stored verbatim (they dominate the size
// either way, but dedup tables would hurt streamability).

// binaryMagic identifies a binary trace stream.
var binaryMagic = [5]byte{'S', 'C', 'T', 'R', 1}

// ErrBadMagic reports a stream that is not a binary trace.
var ErrBadMagic = errors.New("trace: not a binary trace stream")

// maxBinaryURLLen guards against corrupt length prefixes.
const maxBinaryURLLen = 64 * 1024

// BinaryWriter emits the binary trace format.
type BinaryWriter struct {
	bw       *bufio.Writer
	started  bool
	lastTime int64
	buf      []byte
	n        int
}

// NewBinaryWriter wraps w.
func NewBinaryWriter(w io.Writer) *BinaryWriter {
	return &BinaryWriter{bw: bufio.NewWriterSize(w, 1<<16), buf: make([]byte, 0, 64)}
}

// Write emits one record.
func (w *BinaryWriter) Write(r Request) error {
	if !w.started {
		if _, err := w.bw.Write(binaryMagic[:]); err != nil {
			return err
		}
		w.started = true
	}
	if r.Time < w.lastTime {
		return fmt.Errorf("trace: binary format requires non-decreasing time (%d < %d)", r.Time, w.lastTime)
	}
	if r.Size < 0 {
		return fmt.Errorf("trace: negative size %d", r.Size)
	}
	if len(r.URL) > maxBinaryURLLen {
		return fmt.Errorf("trace: URL too long (%d bytes)", len(r.URL))
	}
	b := w.buf[:0]
	b = binary.AppendUvarint(b, uint64(r.Time-w.lastTime))
	b = binary.AppendVarint(b, int64(r.Client))
	b = binary.AppendUvarint(b, uint64(r.Size))
	b = binary.AppendVarint(b, r.Version)
	b = binary.AppendUvarint(b, uint64(len(r.URL)))
	w.buf = b
	if _, err := w.bw.Write(b); err != nil {
		return err
	}
	if _, err := w.bw.WriteString(r.URL); err != nil {
		return err
	}
	w.lastTime = r.Time
	w.n++
	return nil
}

// Count returns records written.
func (w *BinaryWriter) Count() int { return w.n }

// Flush flushes buffered output.
func (w *BinaryWriter) Flush() error { return w.bw.Flush() }

// BinaryReader parses the binary trace format.
type BinaryReader struct {
	br       *bufio.Reader
	started  bool
	lastTime int64
	urlBuf   []byte
}

// NewBinaryReader wraps r.
func NewBinaryReader(r io.Reader) *BinaryReader {
	return &BinaryReader{br: bufio.NewReaderSize(r, 1<<16)}
}

// Read returns the next record, or io.EOF at end of stream.
func (r *BinaryReader) Read() (Request, error) {
	if !r.started {
		var magic [5]byte
		if _, err := io.ReadFull(r.br, magic[:]); err != nil {
			if err == io.EOF {
				return Request{}, io.EOF
			}
			return Request{}, err
		}
		if magic != binaryMagic {
			return Request{}, ErrBadMagic
		}
		r.started = true
	}
	dt, err := binary.ReadUvarint(r.br)
	if err != nil {
		if err == io.EOF {
			return Request{}, io.EOF
		}
		return Request{}, err
	}
	client, err := binary.ReadVarint(r.br)
	if err != nil {
		return Request{}, unexpectedEOF(err)
	}
	size, err := binary.ReadUvarint(r.br)
	if err != nil {
		return Request{}, unexpectedEOF(err)
	}
	version, err := binary.ReadVarint(r.br)
	if err != nil {
		return Request{}, unexpectedEOF(err)
	}
	urlLen, err := binary.ReadUvarint(r.br)
	if err != nil {
		return Request{}, unexpectedEOF(err)
	}
	// The writer never emits a time past math.MaxInt64, a size past it,
	// or a client outside int; a stream that does is corrupt.
	if dt > uint64(math.MaxInt64-r.lastTime) {
		return Request{}, fmt.Errorf("%w: time delta %d overflows", ErrBadRecord, dt)
	}
	if size > math.MaxInt64 {
		return Request{}, fmt.Errorf("%w: size %d", ErrBadRecord, size)
	}
	if int64(int(client)) != client {
		return Request{}, fmt.Errorf("%w: client %d", ErrBadRecord, client)
	}
	if urlLen > maxBinaryURLLen {
		return Request{}, fmt.Errorf("%w: URL length %d", ErrBadRecord, urlLen)
	}
	if cap(r.urlBuf) < int(urlLen) {
		r.urlBuf = make([]byte, urlLen)
	}
	buf := r.urlBuf[:urlLen]
	if _, err := io.ReadFull(r.br, buf); err != nil {
		return Request{}, unexpectedEOF(err)
	}
	r.lastTime += int64(dt)
	return Request{
		Time:    r.lastTime,
		Client:  int(client),
		Size:    int64(size),
		Version: version,
		URL:     string(buf),
	}, nil
}

// ReadAll slurps the remaining records.
func (r *BinaryReader) ReadAll() ([]Request, error) {
	var out []Request
	for {
		req, err := r.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, req)
	}
}

func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// ReadAllAuto detects the stream format — the binary magic versus the
// line-oriented text format — and reads every record. It is what
// cmd/simulate uses for -tracefile, so both formats Just Work.
func ReadAllAuto(r io.Reader) ([]Request, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head, err := br.Peek(len(binaryMagic))
	if err != nil && err != io.EOF {
		return nil, err
	}
	if len(head) == len(binaryMagic) && [5]byte(head) == binaryMagic {
		return NewBinaryReader(br).ReadAll()
	}
	return NewReader(br).ReadAll()
}
