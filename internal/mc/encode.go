package mc

// Canonical state encoding: a deterministic packed-byte serialization
// used as the deduplication key during exploration. Two states encode
// identically iff every field the transition function can observe is
// identical, so deduplication is exact (no hashing collisions to
// reason about). Invalidated lines, consumed write-back buffers, and
// cleared pend slots are zeroed by the transition function precisely so
// that semantically equal states encode equally.

// appendMsg packs one message.
func appendMsg(buf []byte, m *msg) []byte {
	flags := byte(0)
	if m.hasData {
		flags = 1
	}
	buf = append(buf, byte(m.kind), m.src, m.dst, m.block, m.word, m.val, m.val2, m.aux, flags)
	return append(buf, m.data[:]...)
}

// encode appends the canonical encoding of st (under the model's
// bounds) to buf and returns it. Only configured processors/blocks/words
// are walked; out-of-range array slots are always zero.
func (m protoModel) encode(st *state, buf []byte) []byte {
	cfg := m.cfg
	for p := 0; p < cfg.Procs; p++ {
		pr := &st.procs[p]
		op := &pr.op
		flags := byte(0)
		if op.active {
			flags |= 1
		}
		if op.txActive {
			flags |= 2
		}
		if op.txReplied {
			flags |= 4
		}
		buf = append(buf, flags, byte(op.kind), op.block, op.word, op.val,
			op.txExp, op.txGot, pr.issued)
		for b := 0; b < cfg.Blocks; b++ {
			wb := byte(0)
			if pr.pwbValid[b] {
				wb = 1
			}
			buf = append(buf, wb, pr.cancelled[b])
			buf = append(buf, pr.pwbData[b][:]...)
		}
	}
	for p := 0; p < cfg.Procs; p++ {
		for b := 0; b < cfg.Blocks; b++ {
			ln := &st.lines[p][b]
			dirty := byte(0)
			if ln.dirty {
				dirty = 1
			}
			buf = append(buf, byte(ln.state), dirty, ln.ctr)
			buf = append(buf, ln.data[:]...)
		}
	}
	for b := 0; b < cfg.Blocks; b++ {
		d := &st.dirs[b]
		busy := byte(0)
		if d.busy {
			busy = 1
		}
		pdata := byte(0)
		if d.pend.hasData {
			pdata = 1
		}
		buf = append(buf, byte(d.State), byte(d.Owner), byte(d.Sharers), busy,
			byte(d.pend.kind), d.pend.req, d.pend.word, d.pend.acks, pdata)
		buf = append(buf, d.pend.data[:]...)
		buf = appendMsg(buf, &d.pend.resume)
		buf = append(buf, byte(len(d.waitq)))
		for i := range d.waitq {
			buf = appendMsg(buf, &d.waitq[i])
		}
	}
	for b := 0; b < cfg.Blocks; b++ {
		buf = append(buf, st.mem[b][:]...)
		for w := 0; w < cfg.Words; w++ {
			h := st.hist[b][w]
			buf = append(buf, byte(h), byte(h>>8), byte(h>>16), byte(h>>24),
				byte(h>>32), byte(h>>40), byte(h>>48), byte(h>>56))
		}
	}
	for s := 0; s < cfg.Procs; s++ {
		for d := 0; d < cfg.Procs; d++ {
			q := st.chans[s][d]
			buf = append(buf, byte(len(q)))
			for i := range q {
				buf = appendMsg(buf, &q[i])
			}
		}
	}
	return buf
}
