package wire

import (
	"crypto/sha256"
	"encoding/binary"
)

// Masking pads. Both sides of the protocol derive 64-bit pads from SHA-256
// over a domain tag and the inputs that bind the pad to its plaintext,
// exactly like the pad sources of internal/otp derive the register's
// tracking pads:
//
//   - ValueMask pads the value of a READ-FETCH response. A connection may
//     apply the same (session, name, reader, seq) pad more than once — a
//     client whose cache lags the server's handle receives the value again
//     without a fresh fetch — but the plaintext it covers is fixed: the
//     register value installed at a given sequence number never changes
//     (one CAS installs each seq), so reuse produces an identical
//     ciphertext and reveals nothing. Distinct values always sit under
//     distinct pads because seq (and name, reader, session) is part of the
//     derivation. Any protocol extension that breaks value-determined-by-
//     seq must switch to a nonce-fresh pad, as AuditMask does.
//   - AuditMask pads the reader-set bitmask of one AUDIT response row.
//     Audit rows do change between responses (sets only grow), so here
//     freshness is mandatory: the nonce is fresh per response. One digest
//     yields the pads of four consecutive rows (XORAuditMasks).
//
// Domain tags keep the two pad families — and the store's own pad streams —
// disjoint.

const (
	valueMaskTag = "auditreg/wire/value-mask/v1\x00"
	auditMaskTag = "auditreg/wire/audit-mask/v2\x00"
)

// ValueMask derives the pad XOR-applied to the value of a READ-FETCH
// response: the first 8 bytes of SHA-256(tag, session, name, reader, seq).
// The server masks with it; the reading client unmasks with it. The digest
// input is assembled in one stack buffer (MaxName bounds the name), so the
// derivation performs no heap allocation — it sits on the server's
// per-fetch fast path.
func ValueMask(session [SessionLen]byte, name string, reader uint8, seq uint64) uint64 {
	if len(name) > MaxName {
		// Out-of-protocol input (decoders reject such names); fall back to
		// the streaming equivalent rather than silently truncate the digest.
		h := sha256.New()
		h.Write([]byte(valueMaskTag))
		h.Write(session[:])
		var num [9]byte
		num[0] = reader
		binary.BigEndian.PutUint64(num[1:], seq)
		h.Write(num[:])
		h.Write([]byte(name))
		var sum [sha256.Size]byte
		h.Sum(sum[:0])
		return binary.BigEndian.Uint64(sum[:8])
	}
	var in [len(valueMaskTag) + SessionLen + 9 + MaxName]byte
	n := copy(in[:], valueMaskTag)
	n += copy(in[n:], session[:])
	in[n] = reader
	binary.BigEndian.PutUint64(in[n+1:], seq)
	n += 9
	n += copy(in[n:], name)
	sum := sha256.Sum256(in[:n])
	return binary.BigEndian.Uint64(sum[:8])
}

// AuditMask derives the pad XOR-applied to the reader-set bitmask of row i
// of an AUDIT response: 8-byte word i%4 of SHA-256(tag, key, nonce, i/4).
// The server masks with the store key; only a key-holding auditor client can
// unmask — readers, by the paper's trust model, cannot. Within a response
// each row has its own word of a digest, and the fresh nonce keeps pads of
// different responses apart. Allocation-free, like ValueMask.
func AuditMask(key [32]byte, nonce [NonceLen]byte, row int) uint64 {
	in := newAuditMaskInput(key, nonce)
	r := uint64(row)
	sum := in.block(r / 4)
	return binary.BigEndian.Uint64(sum[8*(r%4):])
}

// XORAuditMasks XORs the reader set of every row of resp, in place, with
// AuditMask(key, resp.Nonce, i): the server masks a response with it and
// the auditor client unmasks one. It computes one digest per four rows and
// allocates nothing.
func XORAuditMasks(key [32]byte, resp *AuditResp) {
	in := newAuditMaskInput(key, resp.Nonce)
	rows := resp.Rows
	for b := uint64(0); len(rows) > 0; b++ {
		sum := in.block(b)
		n := min(4, len(rows))
		for j := range rows[:n] {
			rows[j].Readers ^= binary.BigEndian.Uint64(sum[8*j:])
		}
		rows = rows[n:]
	}
}

// auditMaskInput is the digest input of one block of audit pads: tag, key,
// nonce, then the block number in the last 8 bytes.
type auditMaskInput [len(auditMaskTag) + 32 + NonceLen + 8]byte

func newAuditMaskInput(key [32]byte, nonce [NonceLen]byte) (in auditMaskInput) {
	n := copy(in[:], auditMaskTag)
	n += copy(in[n:], key[:])
	copy(in[n:], nonce[:])
	return in
}

// block returns the digest that pads rows 4*b to 4*b+3.
func (in *auditMaskInput) block(b uint64) [sha256.Size]byte {
	binary.BigEndian.PutUint64(in[len(in)-8:], b)
	return sha256.Sum256(in[:])
}
