package binio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
)

// appendJournalRecord appends one CRC-framed record holding payload.
func appendJournalRecord(dst, payload []byte) []byte {
	dst, mark := BeginJournalRecord(dst)
	dst = append(dst, payload...)
	return EndJournalRecord(dst, mark)
}

// journalFixture frames the given payloads into a full journal file
// (header + records).
func journalFixture(payloads ...[]byte) []byte {
	b := AppendJournalHeader(nil)
	for _, p := range payloads {
		b = appendJournalRecord(b, p)
	}
	return b
}

func fixturePayloads() [][]byte {
	return [][]byte{
		[]byte("alpha"),
		{},
		[]byte("a longer third record payload with some bytes in it"),
		{0x00, 0xFF, 0x10, 0x20},
	}
}

func TestJournalRoundTrip(t *testing.T) {
	payloads := fixturePayloads()
	b := journalFixture(payloads...)

	region, err := CheckJournalHeader(b)
	if err != nil {
		t.Fatalf("CheckJournalHeader: %v", err)
	}
	var got [][]byte
	clean, err := ScanJournal(region, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatalf("ScanJournal: %v", err)
	}
	if clean != len(region) {
		t.Fatalf("clean = %d, want %d", clean, len(region))
	}
	if len(got) != len(payloads) {
		t.Fatalf("scanned %d records, want %d", len(got), len(payloads))
	}
	for i := range payloads {
		if !bytes.Equal(got[i], payloads[i]) {
			t.Errorf("record %d = %q, want %q", i, got[i], payloads[i])
		}
	}
}

func TestJournalHeaderChecks(t *testing.T) {
	full := journalFixture()
	// Every strict prefix of the header is a torn header write: ErrShort.
	for n := 0; n < JournalHeaderLen; n++ {
		if _, err := CheckJournalHeader(full[:n]); !errors.Is(err, ErrShort) {
			t.Errorf("header prefix %d: err = %v, want ErrShort", n, err)
		}
	}
	// Wrong magic and wrong version are refusals, not torn writes.
	bad := append([]byte(nil), full...)
	bad[0] ^= 0xFF
	if _, err := CheckJournalHeader(bad); !errors.Is(err, ErrBadJournal) {
		t.Errorf("bad magic: err = %v, want ErrBadJournal", err)
	}
	bad = append(bad[:0], full...)
	bad[5] ^= 0xFF
	if _, err := CheckJournalHeader(bad); !errors.Is(err, ErrBadJournal) {
		t.Errorf("bad version: err = %v, want ErrBadJournal", err)
	}
}

// TestJournalEveryBytePrefix is the byte-level torn-tail property: for every
// possible kill point (every byte prefix of the record region), the scan
// must recover exactly the records that were fully written before the kill
// and report the rest as a torn tail.
func TestJournalEveryBytePrefix(t *testing.T) {
	payloads := fixturePayloads()
	b := journalFixture(payloads...)
	region := b[JournalHeaderLen:]

	// recordEnds[i] = offset in region where record i's frame ends.
	var recordEnds []int
	off := 0
	for _, p := range payloads {
		off += journalFrameLen + len(p)
		recordEnds = append(recordEnds, off)
	}

	for cut := 0; cut <= len(region); cut++ {
		wantRecords := 0
		wantClean := 0
		for i, end := range recordEnds {
			if end <= cut {
				wantRecords = i + 1
				wantClean = end
			}
		}
		gotRecords := 0
		clean, err := ScanJournal(region[:cut], func(p []byte) error {
			if !bytes.Equal(p, payloads[gotRecords]) {
				t.Fatalf("cut %d: record %d corrupted", cut, gotRecords)
			}
			gotRecords++
			return nil
		})
		if gotRecords != wantRecords {
			t.Fatalf("cut %d: scanned %d records, want %d", cut, gotRecords, wantRecords)
		}
		if clean != wantClean {
			t.Fatalf("cut %d: clean = %d, want %d", cut, clean, wantClean)
		}
		if cut == wantClean {
			if err != nil {
				t.Fatalf("cut %d at a record boundary: err = %v, want nil", cut, err)
			}
		} else if !errors.Is(err, ErrTornRecord) {
			t.Fatalf("cut %d mid-record: err = %v, want ErrTornRecord", cut, err)
		}
	}
}

// TestJournalEveryByteFlip is the bit-rot property: flipping any single
// byte anywhere in the record region must never panic and must never yield
// a record that was not written (the scan either still sees a prefix of the
// original payloads, or stops with ErrTornRecord at the damage).
func TestJournalEveryByteFlip(t *testing.T) {
	payloads := fixturePayloads()
	b := journalFixture(payloads...)
	region := b[JournalHeaderLen:]

	corrupt := make([]byte, len(region))
	for pos := 0; pos < len(region); pos++ {
		copy(corrupt, region)
		corrupt[pos] ^= 0xA5
		idx := 0
		clean, err := ScanJournal(corrupt, func(p []byte) error {
			// A record surviving the flip must be one of the originals in
			// order — except the flipped one, whose CRC may collide only if
			// the flip landed in its own payload... which a XOR cannot cause
			// (the CRC of a changed payload under the same frame differs).
			if idx >= len(payloads) || !bytes.Equal(p, payloads[idx]) {
				t.Fatalf("flip at %d produced a record that was never written", pos)
			}
			idx++
			return nil
		})
		if err == nil && idx != len(payloads) {
			t.Fatalf("flip at %d: clean scan but only %d records", pos, idx)
		}
		if err != nil && !errors.Is(err, ErrTornRecord) {
			t.Fatalf("flip at %d: err = %v, want ErrTornRecord", pos, err)
		}
		if clean > len(corrupt) {
			t.Fatalf("flip at %d: clean %d beyond region %d", pos, clean, len(corrupt))
		}
	}
}

// TestJournalAppendAfterTruncate proves the recovery contract end to end: a
// torn tail, once truncated to the clean prefix, accepts fresh appends that
// scan cleanly alongside the surviving records.
func TestJournalAppendAfterTruncate(t *testing.T) {
	payloads := fixturePayloads()
	b := journalFixture(payloads...)
	region := b[JournalHeaderLen:]

	// Kill mid-third-record.
	cut := journalFrameLen + len(payloads[0]) + journalFrameLen + len(payloads[1]) + 3
	torn := region[:cut]
	clean, err := ScanJournal(torn, nil)
	if !errors.Is(err, ErrTornRecord) {
		t.Fatalf("err = %v, want ErrTornRecord", err)
	}

	resumed := append(append([]byte(nil), torn[:clean]...), appendJournalRecord(nil, []byte("post-crash"))...)
	var got [][]byte
	n, err := ScanJournal(resumed, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil || n != len(resumed) {
		t.Fatalf("resumed scan: clean %d/%d, err %v", n, len(resumed), err)
	}
	want := [][]byte{payloads[0], payloads[1], []byte("post-crash")}
	if len(got) != len(want) {
		t.Fatalf("resumed records = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("resumed record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestReserveLenMatchesAppendBytes pins the reserve-and-patch framing to the
// AppendBytes layout it promises to reproduce, including through the string
// variant.
func TestReserveLenMatchesAppendBytes(t *testing.T) {
	payload := []byte("nested blob content")
	want := AppendBytes([]byte{0xEE}, payload)

	got, mark := ReserveLen([]byte{0xEE})
	got = append(got, payload...)
	got = PatchLen(got, mark)
	if !bytes.Equal(got, want) {
		t.Errorf("ReserveLen/PatchLen = %x, want %x", got, want)
	}

	if s := AppendString([]byte{0xEE}, string(payload)); !bytes.Equal(s, want) {
		t.Errorf("AppendString = %x, want %x", s, want)
	}
}

// TestJournalRecordInPlace pins Begin/EndJournalRecord to the record
// framing: big-endian payload length, Castagnoli CRC of the payload, payload.
func TestJournalRecordInPlace(t *testing.T) {
	payload := []byte("framed in place")
	want := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	want = binary.BigEndian.AppendUint32(want, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	want = append(want, payload...)
	got, mark := BeginJournalRecord(nil)
	got = append(got, payload...)
	got = EndJournalRecord(got, mark)
	if !bytes.Equal(got, want) {
		t.Errorf("Begin/EndJournalRecord = %x, want %x", got, want)
	}
}

// TestScanJournalCallbackError: an error from fn stops the scan, excludes
// the record from the clean prefix, and surfaces as-is.
func TestScanJournalCallbackError(t *testing.T) {
	payloads := fixturePayloads()
	b := journalFixture(payloads...)
	region := b[JournalHeaderLen:]
	sentinel := errors.New("sentinel")
	calls := 0
	clean, err := ScanJournal(region, func(p []byte) error {
		calls++
		if calls == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if want := journalFrameLen + len(payloads[0]); clean != want {
		t.Fatalf("clean = %d, want %d", clean, want)
	}
}
