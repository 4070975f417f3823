// Package icp implements version 2 of the Internet Cache Protocol
// (RFC 2186) — the query/reply protocol Squid proxies use to discover
// remote cache hits — extended with the paper's ICP_OP_DIRUPDATE opcode
// (§VI-A) that carries summary-cache directory updates: a header fully
// specifying the Bloom hash functions followed by a stream of absolute
// bit-flip records, so updates tolerate loss and reordering over UDP.
//
// The wire layout is the RFC's 20-byte header:
//
//	Opcode(1) Version(1) MessageLength(2) RequestNumber(4)
//	Options(4) OptionData(4) SenderHostAddress(4)
//
// followed by an opcode-specific payload. The DIRUPDATE payload is the
// paper's extension header — FunctionNum(2) FunctionBits(2)
// BitArraySizeInBits(4) NumberOfUpdates(4) — followed by NumberOfUpdates
// 32-bit words whose most significant bit selects set-vs-clear and whose
// low 31 bits index the peer's bit array.
//
// A query flagged FlagHitObj (the RFC's ICP_FLAG_HIT_OBJ) lets the
// answering cache return a small document inside its reply: the HIT_OBJ
// payload is URL\0, a 16-bit object size and the object, the whole message
// at most MaxHitObjLen octets, and the document's version rides in
// OptionData. A remote hit then costs one UDP round trip instead of a query
// plus a sibling HTTP fetch.
package icp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"summarycache/internal/bloom"
	"summarycache/internal/hashing"
)

// Opcode is an ICP operation code.
type Opcode uint8

// RFC 2186 opcodes plus the paper's directory-update extension.
const (
	OpInvalid     Opcode = 0
	OpQuery       Opcode = 1
	OpHit         Opcode = 2
	OpMiss        Opcode = 3
	OpErr         Opcode = 4
	OpSEcho       Opcode = 10
	OpDEcho       Opcode = 11
	OpMissNoFetch Opcode = 21
	OpDenied      Opcode = 22
	OpHitObj      Opcode = 23
	// OpDirUpdate is the summary-cache extension ("We added a new opcode
	// in ICP version 2, ICP_OP_DIRUPDATE, which stands for directory
	// update messages"). The paper assigns no number; we use 32, above the
	// RFC-defined range.
	OpDirUpdate Opcode = 32
)

// String implements fmt.Stringer.
func (o Opcode) String() string {
	switch o {
	case OpInvalid:
		return "INVALID"
	case OpQuery:
		return "QUERY"
	case OpHit:
		return "HIT"
	case OpMiss:
		return "MISS"
	case OpErr:
		return "ERR"
	case OpSEcho:
		return "SECHO"
	case OpDEcho:
		return "DECHO"
	case OpMissNoFetch:
		return "MISS_NOFETCH"
	case OpDenied:
		return "DENIED"
	case OpHitObj:
		return "HIT_OBJ"
	case OpDirUpdate:
		return "DIRUPDATE"
	default:
		return fmt.Sprintf("OP(%d)", uint8(o))
	}
}

// Verdict is how traces name an answer with this opcode: "hit", "hit_obj"
// (the document rode inside the reply) or "miss" (any other reply).
func (o Opcode) Verdict() string {
	switch o {
	case OpHit:
		return "hit"
	case OpHitObj:
		return "hit_obj"
	}
	return "miss"
}

// Version is the protocol version this package speaks.
const Version = 2

// OptionFullUpdate, set in a DIRUPDATE's Options field, announces that the
// message (stream) carries the sender's complete filter state: the
// receiver must reset its replica before applying. Senders use it to
// bootstrap a new neighbor or reinitialize a recovered one.
const OptionFullUpdate uint32 = 1 << 0

// OptionResyncRequest, set in a DIRUPDATE's Options field, asks the
// receiver for its own full state in return: the sender holds no replica of
// it, as after a restart. A node sets it on a full-state shipment, and
// answers each member's request at most once per rate-limit gap.
const OptionResyncRequest uint32 = 1 << 1

// FlagHitObj, set in a QUERY's Options field, is RFC 2186's
// ICP_FLAG_HIT_OBJ: the querier accepts the document itself in a HIT_OBJ
// reply.
const FlagHitObj uint32 = 0x80000000

// MaxHitObjLen is RFC 2186's bound on a HIT_OBJ message, header included:
// a document whose reply would be longer is answered with a plain HIT.
const MaxHitObjLen = 16384

// hitObjSizeLen is the object-size field between a HIT_OBJ's URL and its
// object.
const hitObjSizeLen = 2

// HeaderLen is the fixed ICP header size.
const HeaderLen = 20

// optionsOffset is where the header's Options field begins.
const optionsOffset = 8

// DirUpdateHeaderLen is the paper's extension header size (after the ICP
// header). 20 + 12 = the 32-byte update header of the paper's Fig. 8 cost
// model.
const DirUpdateHeaderLen = 12

// MaxDatagram bounds an encoded message: the maximum UDP payload over
// IPv4 (65535 − 8 UDP − 20 IP), which also keeps the 16-bit ICP message
// length field valid.
const MaxDatagram = 65507

// MaxFlipsPerMessage is the most flip records one DIRUPDATE datagram holds.
const MaxFlipsPerMessage = (MaxDatagram - HeaderLen - DirUpdateHeaderLen) / 4

// Wire format errors.
var (
	ErrTruncated    = errors.New("icp: truncated message")
	ErrBadVersion   = errors.New("icp: unsupported version")
	ErrBadLength    = errors.New("icp: message length mismatch")
	ErrTooLarge     = errors.New("icp: message exceeds maximum datagram")
	ErrBadURL       = errors.New("icp: URL missing NUL terminator")
	ErrFlipRange    = errors.New("icp: flip index exceeds 31 bits")
	ErrNotDirUpdate = errors.New("icp: message carries no directory update")
)

// DirUpdate is the payload of an OpDirUpdate message.
//
// An update from NewDirUpdate or Parse owns its records, in Flips. One a
// Decoder produced borrows them: Flips is nil and the records sit in the
// decoder's scratch until its next Decode. Len, At, Validate and ApplyTo
// read either kind; on a borrowed update they panic with "icp: DirUpdate
// read after its Decoder decoded another datagram" once the decoder has
// moved on, so a borrow kept past its handler fails on first use instead
// of reading another datagram's flips. None of them returns a slice, which
// could be kept unchecked; copy records out through At to keep them.
type DirUpdate struct {
	Spec hashing.Spec // hash family (FunctionNum, FunctionBits)
	Bits uint32       // peer's bit-array size in bits
	// Flips are an owned update's absolute set/clear records; applying them
	// to a same-geometry bloom.Filter is idempotent, which is what lets
	// these ride an unreliable transport.
	Flips []bloom.Flip

	dec *Decoder // holds a borrowed update's records; nil when owned
	gen uint64   // dec's generation when it decoded this update
}

// staleBorrow is the panic a borrowed DirUpdate raises once its Decoder has
// decoded another datagram.
const staleBorrow = "icp: DirUpdate read after its Decoder decoded another datagram"

// records returns u's flip records, panicking if u is a borrow its decoder
// has since overwritten. The slice is for reading in place, never keeping.
func (u *DirUpdate) records() []bloom.Flip {
	if u.dec == nil {
		return u.Flips
	}
	if u.dec.gen != u.gen {
		panic(staleBorrow)
	}
	return u.dec.flips
}

// Len returns the number of flip records.
func (u *DirUpdate) Len() int { return len(u.records()) }

// At returns flip record i.
func (u *DirUpdate) At(i int) bloom.Flip { return u.records()[i] }

// Validate returns an error wrapping bloom.ErrIndexRange for the first
// record that indexes past Bits.
func (u *DirUpdate) Validate() error {
	for _, fl := range u.records() {
		if fl.Index >= u.Bits {
			return fmt.Errorf("icp: %w: %d >= %d", bloom.ErrIndexRange, fl.Index, u.Bits)
		}
	}
	return nil
}

// ApplyTo applies the records to f in order (see bloom.Filter.Apply).
func (u *DirUpdate) ApplyTo(f *bloom.Filter) error { return f.Apply(u.records()) }

// WireBytes returns the size of the DIRUPDATE datagram that carried (or
// would carry) u — ICP header, extension header, and flip records. This is
// the per-peer byte accounting the mesh-health tracker charges for an
// applied update.
func (u *DirUpdate) WireBytes() int {
	return HeaderLen + DirUpdateHeaderLen + 4*u.Len()
}

// Message is one ICP datagram.
type Message struct {
	Op         Opcode
	Version    uint8
	ReqNum     uint32
	Options    uint32
	OptionData uint32
	SenderAddr uint32

	// URL is the query/reply subject (OpQuery, OpHit, OpMiss, ...).
	URL string
	// RequesterAddr is the extra host field carried by OpQuery payloads.
	RequesterAddr uint32
	// Object is the OpHitObj payload: the document itself, whose version
	// rides in OptionData. Decoding copies it out of the datagram, so it is
	// always owned.
	Object []byte
	// Update is the OpDirUpdate payload; zero for every other opcode.
	Update DirUpdate
}

// NewQuery builds a query for url.
func NewQuery(reqNum uint32, url string) Message {
	return Message{Op: OpQuery, Version: Version, ReqNum: reqNum, URL: url}
}

// NewReply builds a HIT/MISS-style reply echoing a query's request number
// and URL.
func NewReply(op Opcode, reqNum uint32, url string) Message {
	return Message{Op: op, Version: Version, ReqNum: reqNum, URL: url}
}

// NewHitObj builds a HIT_OBJ reply carrying body at version. ok is false
// when the reply cannot carry it — the message would exceed MaxHitObjLen or
// the version does not fit the 32-bit OptionData — and the answer must be a
// plain HIT.
func NewHitObj(reqNum uint32, url string, body []byte, version int64) (m Message, ok bool) {
	m = Message{Op: OpHitObj, Version: Version, ReqNum: reqNum, URL: url,
		OptionData: uint32(version), Object: body}
	return m, version >= 0 && version <= 1<<32-1 && m.EncodedLen() <= MaxHitObjLen
}

// Answer builds the reply to peer query q from the answering cache. A query
// flagged FlagHitObj is answered from read — MISS when absent, HIT_OBJ with
// the document when NewHitObj can carry it, HIT otherwise, which sends the
// querier to its HTTP fetch — and any other query from has. read may be nil
// for a cache that never inlines.
func Answer(q Message, has func(url string) bool, read func(url string) (body []byte, version int64, ok bool)) Message {
	op := OpMiss
	if q.Options&FlagHitObj != 0 && read != nil {
		body, version, ok := read(q.URL)
		if !ok {
			return NewReply(OpMiss, q.ReqNum, q.URL)
		}
		if m, fits := NewHitObj(q.ReqNum, q.URL, body, version); fits {
			return m
		}
		op = OpHit
	} else if has(q.URL) {
		op = OpHit
	}
	return NewReply(op, q.ReqNum, q.URL)
}

// NewDirUpdate builds a directory-update message.
func NewDirUpdate(reqNum uint32, spec hashing.Spec, bits uint32, flips []bloom.Flip) Message {
	return Message{
		Op: OpDirUpdate, Version: Version, ReqNum: reqNum,
		Update: DirUpdate{Spec: spec, Bits: bits, Flips: flips},
	}
}

// hasURLPayload reports whether op carries a NUL-terminated URL payload.
func hasURLPayload(op Opcode) bool {
	switch op {
	case OpQuery, OpHit, OpMiss, OpMissNoFetch, OpDenied, OpErr, OpSEcho, OpDEcho, OpHitObj:
		return true
	}
	return false
}

// EncodedLen returns the encoded size of m in bytes.
func (m Message) EncodedLen() int {
	n := HeaderLen
	switch {
	case m.Op == OpDirUpdate:
		n += DirUpdateHeaderLen + 4*m.Update.Len()
	case m.Op == OpQuery:
		n = queryLen(len(m.URL))
	case m.Op == OpHitObj:
		n += len(m.URL) + 1 + hitObjSizeLen + len(m.Object)
	case hasURLPayload(m.Op):
		n += len(m.URL) + 1
	}
	return n
}

// Append encodes m onto dst and returns the extended slice.
func (m Message) Append(dst []byte) ([]byte, error) {
	total := m.EncodedLen()
	if total > MaxDatagram || (m.Op == OpHitObj && total > MaxHitObjLen) {
		return dst, fmt.Errorf("%w: %d bytes", ErrTooLarge, total)
	}
	dst = m.appendHeader(dst, total)
	switch {
	case m.Op == OpDirUpdate:
		u := &m.Update
		flips := u.records()
		dst = binary.BigEndian.AppendUint16(dst, uint16(u.Spec.FunctionNum))
		dst = binary.BigEndian.AppendUint16(dst, uint16(u.Spec.FunctionBits))
		dst = binary.BigEndian.AppendUint32(dst, u.Bits)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(flips)))
		for _, f := range flips {
			if f.Index >= 1<<31 {
				return dst, fmt.Errorf("%w: %d", ErrFlipRange, f.Index)
			}
			w := f.Index
			if f.Set {
				w |= 1 << 31
			}
			dst = binary.BigEndian.AppendUint32(dst, w)
		}
	case m.Op == OpQuery:
		dst = append(append(binary.BigEndian.AppendUint32(dst, m.RequesterAddr), m.URL...), 0)
	case m.Op == OpHitObj:
		dst = append(dst, m.URL...)
		dst = append(dst, 0)
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.Object)))
		dst = append(dst, m.Object...)
	case hasURLPayload(m.Op):
		dst = append(dst, m.URL...)
		dst = append(dst, 0)
	}
	return dst, nil
}

// appendHeader appends m's fixed header, for an encoding of total bytes.
func (m Message) appendHeader(dst []byte, total int) []byte {
	v := m.Version
	if v == 0 {
		v = Version
	}
	dst = append(dst, byte(m.Op), v)
	dst = binary.BigEndian.AppendUint16(dst, uint16(total))
	dst = binary.BigEndian.AppendUint32(dst, m.ReqNum)
	dst = binary.BigEndian.AppendUint32(dst, m.Options)
	dst = binary.BigEndian.AppendUint32(dst, m.OptionData)
	return binary.BigEndian.AppendUint32(dst, m.SenderAddr)
}

// queryLen is the encoded length of a query for a URL of n bytes.
func queryLen(n int) int { return HeaderLen + 4 + n + 1 }

// appendQuery appends the query NewQuery(reqNum, url) with options set
// encodes to, for url held as a string or as bytes (FuzzQueryEncoding).
func appendQuery[T string | []byte](dst []byte, reqNum, options uint32, url T) ([]byte, error) {
	total := queryLen(len(url))
	if total > MaxDatagram {
		return dst, fmt.Errorf("%w: %d bytes", ErrTooLarge, total)
	}
	dst = Message{Op: OpQuery, ReqNum: reqNum, Options: options}.appendHeader(dst, total)
	return append(append(binary.BigEndian.AppendUint32(dst, 0), url...), 0), nil
}

// MarshalBinary encodes m.
func (m Message) MarshalBinary() ([]byte, error) {
	return m.Append(make([]byte, 0, m.EncodedLen()))
}

// parseHeader validates the fixed 20-byte header into m and returns the
// opcode-specific body. It allocates nothing.
func parseHeader(b []byte, m *Message) ([]byte, error) {
	if len(b) < HeaderLen {
		return nil, ErrTruncated
	}
	m.Op = Opcode(b[0])
	m.Version = b[1]
	if m.Version != Version {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, m.Version)
	}
	msgLen := int(binary.BigEndian.Uint16(b[2:4]))
	// A 16-bit length field cannot express datagrams above 64 KiB; such
	// messages are rejected at encode time.
	if msgLen != len(b) {
		return nil, fmt.Errorf("%w: header says %d, datagram is %d", ErrBadLength, msgLen, len(b))
	}
	m.ReqNum = binary.BigEndian.Uint32(b[4:8])
	m.Options = binary.BigEndian.Uint32(b[8:12])
	m.OptionData = binary.BigEndian.Uint32(b[12:16])
	m.SenderAddr = binary.BigEndian.Uint32(b[16:20])
	return b[HeaderLen:], nil
}

// parseDirUpdateHeader validates a DIRUPDATE extension header into u and
// returns the flip-record bytes and count. Flips are left for the caller,
// which decides where the decoded records live.
func parseDirUpdateHeader(body []byte, u *DirUpdate) (rest []byte, n int, err error) {
	if len(body) < DirUpdateHeaderLen {
		return nil, 0, ErrTruncated
	}
	u.Spec = hashing.Spec{
		FunctionNum:  int(binary.BigEndian.Uint16(body[0:2])),
		FunctionBits: int(binary.BigEndian.Uint16(body[2:4])),
	}
	u.Bits = binary.BigEndian.Uint32(body[4:8])
	declared := binary.BigEndian.Uint32(body[8:12])
	rest = body[DirUpdateHeaderLen:]
	// Compared in 64 bits: where int is 32, 4*declared would wrap, and a
	// count near 2^30 would pass for the few records present.
	if uint64(len(rest)) != 4*uint64(declared) {
		return nil, 0, fmt.Errorf("%w: %d flip records declared, %d bytes present", ErrBadLength, declared, len(rest))
	}
	return rest, int(declared), nil
}

// decodeFlips appends the n flip records in rest onto dst.
func decodeFlips(dst []bloom.Flip, rest []byte, n int) []bloom.Flip {
	for i := 0; i < n; i++ {
		w := binary.BigEndian.Uint32(rest[4*i:])
		dst = append(dst, bloom.Flip{Index: w &^ (1 << 31), Set: w&(1<<31) != 0})
	}
	return dst
}

// Parse decodes one datagram into a fully caller-owned Message: the flip
// slice is freshly allocated, so the result may be retained indefinitely.
// Hot receive loops use a Decoder instead, which reuses its scratch across
// messages.
func Parse(b []byte) (Message, error) {
	var m Message
	body, err := parseHeader(b, &m)
	if err != nil {
		return m, err
	}
	if m.Op != OpDirUpdate {
		url, obj, err := parseURLPayload(body, &m)
		m.URL, m.Object = string(url), bytes.Clone(obj)
		return m, err
	}
	rest, n, err := parseDirUpdateHeader(body, &m.Update)
	if err != nil {
		return m, err
	}
	m.Update.Flips = decodeFlips(make([]bloom.Flip, 0, n), rest, n)
	return m, nil
}

// parseURLPayload validates the payload of every opcode but DIRUPDATE,
// sets a query's RequesterAddr in m, and returns the URL and, for a
// HIT_OBJ, the object (non-nil, possibly empty) as views into body. It
// copies nothing: the caller decides what to own. Parse and Decode copy
// both out; the Conn's read loop copies no reply's URL, and a HIT_OBJ's
// object only into the destination of the query that asked for it. A
// HIT_OBJ over MaxHitObjLen, or whose size field disagrees with the bytes
// present, is rejected.
func parseURLPayload(body []byte, m *Message) (url, obj []byte, err error) {
	switch {
	case m.Op == OpQuery:
		if len(body) < 5 {
			return nil, nil, ErrTruncated
		}
		m.RequesterAddr = binary.BigEndian.Uint32(body[0:4])
		url, err = cutNUL(body[4:])
	case m.Op == OpHitObj:
		if HeaderLen+len(body) > MaxHitObjLen {
			return nil, nil, fmt.Errorf("%w: HIT_OBJ of %d bytes", ErrTooLarge, HeaderLen+len(body))
		}
		end := bytes.IndexByte(body, 0)
		if end < 0 {
			return nil, nil, ErrBadURL
		}
		obj = body[end+1:]
		if len(obj) < hitObjSizeLen {
			return nil, nil, ErrTruncated
		}
		size := int(binary.BigEndian.Uint16(obj))
		if obj = obj[hitObjSizeLen:]; size != len(obj) {
			return nil, nil, fmt.Errorf("%w: object size %d, %d bytes present", ErrBadLength, size, len(obj))
		}
		url = body[:end]
	case hasURLPayload(m.Op):
		url, err = cutNUL(body)
	}
	return url, obj, err
}

// A Decoder parses datagrams in place, without per-message allocation: a
// DIRUPDATE's flip records decode into scratch the Decoder owns and reuses
// across calls, and the returned Update borrows them (see DirUpdate) until
// the next Decode — exactly the borrow contract Handler documents. Each
// Decode starts a new generation, and a borrowed update from an earlier one
// panics when read. Decode copies a URL out as one string allocation and a
// HIT_OBJ's object as one copy (both outlive the datagram: handlers retain
// URLs, and a querier serves or stores the object, so a view into the
// receive buffer would dangle). The Conn's read loop decodes with the same
// Decoder but owns the views itself: a reply naming the URL its query
// asked shares the query's string, and its object lands in the query's
// destination (see QueryAll), so a reply allocates nothing.
// DIRUPDATE traffic, the mesh's volume driver, decodes with zero
// allocations steady-state.
//
// A Decoder must not be shared between goroutines without external
// serialization; each receive loop owns one.
type Decoder struct {
	gen   uint64 // bumped by every Decode, before the scratch is overwritten
	flips []bloom.Flip
}

// Decode parses one datagram. See the Decoder contract for the lifetime of
// the result.
func (d *Decoder) Decode(b []byte) (Message, error) {
	m, url, obj, err := d.decode(b)
	m.URL, m.Object = string(url), bytes.Clone(obj)
	return m, err
}

// decode is Decode leaving the URL and a HIT_OBJ's object as views into b
// (see parseURLPayload); m.URL and m.Object are unset.
func (d *Decoder) decode(b []byte) (m Message, url, obj []byte, err error) {
	d.gen++
	body, err := parseHeader(b, &m)
	if err != nil {
		return m, nil, nil, err
	}
	if m.Op != OpDirUpdate {
		url, obj, err = parseURLPayload(body, &m)
		return m, url, obj, err
	}
	rest, n, err := parseDirUpdateHeader(body, &m.Update)
	if err != nil {
		return m, nil, nil, err
	}
	d.flips = decodeFlips(d.flips[:0], rest, n)
	m.Update.dec, m.Update.gen = d, d.gen
	return m, nil, nil, nil
}

// cutNUL returns b without its NUL terminator.
func cutNUL(b []byte) ([]byte, error) {
	if len(b) == 0 || b[len(b)-1] != 0 {
		return nil, ErrBadURL
	}
	return b[:len(b)-1], nil
}

// SplitUpdate partitions flips into DIRUPDATE messages of at most
// maxFlips records each (MaxFlipsPerMessage when maxFlips <= 0), all
// carrying the same spec and geometry. The prototype "sends updates
// whenever there are enough changes to fill an IP packet"; callers pick
// maxFlips accordingly (e.g. ~360 for a 1500-byte MTU).
func SplitUpdate(reqNum uint32, spec hashing.Spec, bits uint32, flips []bloom.Flip, maxFlips int) []Message {
	return AppendSplitUpdate(nil, reqNum, spec, bits, flips, maxFlips)
}

// AppendSplitUpdate is SplitUpdate appending the messages to dst, an
// array a caller that publishes repeatedly keeps: once it is big enough,
// a split allocates nothing.
func AppendSplitUpdate(dst []Message, reqNum uint32, spec hashing.Spec, bits uint32, flips []bloom.Flip, maxFlips int) []Message {
	if maxFlips <= 0 || maxFlips > MaxFlipsPerMessage {
		maxFlips = MaxFlipsPerMessage
	}
	if len(flips) == 0 {
		return append(dst, NewDirUpdate(reqNum, spec, bits, nil))
	}
	for start := 0; start < len(flips); start += maxFlips {
		end := min(start+maxFlips, len(flips))
		dst = append(dst, NewDirUpdate(reqNum, spec, bits, flips[start:end]))
		reqNum++
	}
	return dst
}
