package binio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Journal framing: an append-only file opens with a 6-byte header (magic +
// version) followed by a flat sequence of CRC-framed records,
//
//	u32 payload length | u32 CRC-32C(payload) | payload
//
// so a crash can only ever damage the tail: ScanJournal walks record by
// record, verifying each CRC, and reports exactly how many bytes form a
// clean prefix. Everything after the first torn or corrupt record is the
// crash residue to truncate — records are not self-delimiting after damage,
// so nothing beyond that point can be trusted even if a later CRC happens
// to line up.
const (
	// JournalMagic marks a journal file ("MLWJ").
	JournalMagic uint32 = 0x4D4C574A
	// JournalVersion tags the journal framing layout.
	JournalVersion uint16 = 1
	// JournalHeaderLen is the byte length of the file header.
	JournalHeaderLen = 6
	// journalFrameLen is the per-record framing overhead (length + CRC).
	journalFrameLen = 8
)

// ErrTornRecord reports a journal tail cut mid-record (torn write or bit
// rot): the bytes before it are intact, the bytes from it on are not.
var ErrTornRecord = errors.New("binio: torn journal record")

// ErrBadJournal reports a journal header this build must not touch: wrong
// magic (not a journal at all) or a version it does not understand.
var ErrBadJournal = errors.New("binio: bad journal header")

// journalTable is the CRC-32C (Castagnoli) table, shared so the framing
// helpers never allocate.
var journalTable = crc32.MakeTable(crc32.Castagnoli)

// AppendJournalHeader appends the journal file header.
func AppendJournalHeader(dst []byte) []byte {
	dst = AppendU32(dst, JournalMagic)
	return AppendU16(dst, JournalVersion)
}

// CheckJournalHeader validates a journal file's header and returns the
// record region that follows it. A buffer shorter than the header returns
// ErrShort (a torn header write — rebuildable); a full header with the
// wrong magic or version returns ErrBadJournal (refuse, don't clobber).
func CheckJournalHeader(b []byte) ([]byte, error) {
	if len(b) < JournalHeaderLen {
		return nil, fmt.Errorf("journal header needs %d bytes, have %d: %w", JournalHeaderLen, len(b), ErrShort)
	}
	if m := binary.BigEndian.Uint32(b); m != JournalMagic {
		return nil, fmt.Errorf("%w: magic %#x", ErrBadJournal, m)
	}
	if v := binary.BigEndian.Uint16(b[4:]); v != JournalVersion {
		return nil, fmt.Errorf("%w: version %d (want %d)", ErrBadJournal, v, JournalVersion)
	}
	return b[JournalHeaderLen:], nil
}

// AppendString appends a length-prefixed string, byte-identical to
// AppendBytes of the same content but without forcing a []byte conversion
// (and its allocation) on the caller.
func AppendString(dst []byte, s string) []byte {
	dst = AppendU32(dst, uint32(len(s)))
	return append(dst, s...)
}

// ReserveLen appends a 4-byte length placeholder and returns the mark to
// PatchLen later — the zero-allocation way to build an AppendBytes-framed
// nested blob in place instead of serializing it to a scratch slice first.
func ReserveLen(dst []byte) ([]byte, int) {
	dst = AppendU32(dst, 0)
	return dst, len(dst)
}

// PatchLen writes everything appended since ReserveLen's mark into the
// reserved prefix, completing a length-prefixed field byte-identical to
// AppendBytes of the same content.
func PatchLen(dst []byte, mark int) []byte {
	binary.BigEndian.PutUint32(dst[mark-4:], uint32(len(dst)-mark))
	return dst
}

// BeginJournalRecord reserves a record frame (length + CRC) and returns the
// mark of the payload start; append the payload, then EndJournalRecord.
func BeginJournalRecord(dst []byte) ([]byte, int) {
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	return dst, len(dst)
}

// EndJournalRecord completes a record begun with BeginJournalRecord,
// patching the payload length and CRC into the reserved frame.
func EndJournalRecord(dst []byte, mark int) []byte {
	payload := dst[mark:]
	binary.BigEndian.PutUint32(dst[mark-journalFrameLen:], uint32(len(payload)))
	binary.BigEndian.PutUint32(dst[mark-4:], crc32.Checksum(payload, journalTable))
	return dst
}

// ScanJournal walks a journal record region (the bytes after the header),
// invoking fn — which may be nil — with each intact record's payload, and
// returns the length of the clean prefix: the byte count of consecutive
// records that frame and checksum correctly from the start of b.
//
// A tail that ends mid-record or fails its CRC stops the scan with
// ErrTornRecord; clean then marks where the damage begins, so the caller
// recovers by truncating to it. The length guard compares in uint64 before
// any slicing, so a hostile length prefix can neither wrap the arithmetic
// nor drive an allocation — the scan allocates nothing regardless of input.
// An error from fn also stops the scan, excluding that record from the
// clean prefix, and is returned as-is.
func ScanJournal(b []byte, fn func(payload []byte) error) (clean int, err error) {
	off := 0
	for off < len(b) {
		rest := b[off:]
		if len(rest) < journalFrameLen {
			return off, fmt.Errorf("%d trailing bytes: %w", len(rest), ErrTornRecord)
		}
		n := binary.BigEndian.Uint32(rest)
		if uint64(n) > uint64(len(rest)-journalFrameLen) {
			return off, fmt.Errorf("record of %d bytes with %d left: %w", n, len(rest)-journalFrameLen, ErrTornRecord)
		}
		sum := binary.BigEndian.Uint32(rest[4:])
		payload := rest[journalFrameLen : journalFrameLen+int(n)]
		if got := crc32.Checksum(payload, journalTable); got != sum {
			return off, fmt.Errorf("record checksum %#x, want %#x: %w", got, sum, ErrTornRecord)
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return off, err
			}
		}
		off += journalFrameLen + int(n)
	}
	return off, nil
}
