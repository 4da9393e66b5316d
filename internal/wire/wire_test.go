package wire

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/oid"
)

func TestEncDecPrimitives(t *testing.T) {
	e := &Enc{}
	e.U8(7)
	e.U16(0xbeef)
	e.U32(0xdeadbeef)
	e.I32(-42)
	e.Str([]byte("hello"))
	e.OID(oid.OID(123))
	d := NewDec(e.Bytes())
	if d.U8() != 7 || d.U16() != 0xbeef || d.U32() != 0xdeadbeef || d.I32() != -42 {
		t.Fatal("primitive roundtrip failed")
	}
	if string(d.Str()) != "hello" || d.OID() != 123 {
		t.Fatal("str/oid roundtrip failed")
	}
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
}

func TestEncBigEndian(t *testing.T) {
	e := &Enc{}
	e.U32(0x11223344)
	want := []byte{0x11, 0x22, 0x33, 0x44}
	if !bytes.Equal(e.Bytes(), want) {
		t.Fatalf("network byte order: got % x, want % x", e.Bytes(), want)
	}
}

func TestDecTruncation(t *testing.T) {
	d := NewDec([]byte{1, 2})
	d.U32()
	if d.Err() == nil {
		t.Fatal("expected truncation error")
	}
	// Oversized string length must not panic.
	e := &Enc{}
	e.U32(1 << 30)
	d = NewDec(e.Bytes())
	d.Str()
	if d.Err() == nil {
		t.Fatal("expected string-length error")
	}
}

func TestValueRoundtrip(t *testing.T) {
	vals := []Value{
		IntV(42), IntV(0xffffffff), RealBitsV(math.Float32bits(3.5)),
		RefV(777), NilV(), StringV([]byte("abc")), StringV(nil), RawV(0x12345678),
	}
	e := &Enc{}
	e.Values(vals)
	d := NewDec(e.Bytes())
	got := d.Values()
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	if len(got) != len(vals) {
		t.Fatalf("got %d values", len(got))
	}
	for i := range vals {
		if got[i].Kind != vals[i].Kind || got[i].Bits != vals[i].Bits ||
			!bytes.Equal(got[i].Str, vals[i].Str) {
			t.Errorf("value %d: got %+v want %+v", i, got[i], vals[i])
		}
	}
}

func TestCallConverterCounts(t *testing.T) {
	c := NewCallConverter()
	c.IntToWire(5)
	c.RealToWire(arch.IEEEFloat{}.Enc(1.5), arch.IEEEFloat{})
	c.RefToWire(oid.OID(9))
	st := c.Stats()
	if st.Calls != 2+3+2 {
		t.Errorf("calls = %d, want 7", st.Calls)
	}
	if st.Values != 3 || st.Bytes != 12 {
		t.Errorf("values=%d bytes=%d", st.Values, st.Bytes)
	}
	// The paper's observation: 1-2 conversion calls per byte transferred.
	perByte := float64(st.Calls) / float64(st.Bytes)
	if perByte < 0.5 || perByte > 1.0 {
		t.Errorf("calls per byte = %.2f (value-level); message overhead brings this to the paper's 1-2", perByte)
	}
	c.ResetStats()
	if c.Stats() != (Stats{}) {
		t.Error("reset failed")
	}
}

func TestBatchedConverterCheaper(t *testing.T) {
	slow, fast := NewCallConverter(), NewBatchedConverter()
	for i := 0; i < 100; i++ {
		slow.IntToWire(uint32(i))
		fast.IntToWire(uint32(i))
	}
	if slow.Stats().Calls <= fast.Stats().Calls {
		t.Errorf("batched (%d calls) not cheaper than per-value (%d)",
			fast.Stats().Calls, slow.Stats().Calls)
	}
	if fast.Stats().Calls != 100 || slow.Stats().Calls != 200 {
		t.Errorf("calls: slow=%d fast=%d", slow.Stats().Calls, fast.Stats().Calls)
	}
}

func TestRealConversionAcrossFormats(t *testing.T) {
	// VAX real -> wire -> SPARC real must preserve the value while changing
	// the bits.
	c := NewCallConverter()
	vax, ieee := arch.VAXFloat{}, arch.IEEEFloat{}
	orig := float32(6.25)
	vaxBits := vax.Enc(orig)
	w := c.RealToWire(vaxBits, vax)
	if w.Bits != ieee.Enc(orig) {
		t.Fatalf("wire bits %#x, want IEEE %#x", w.Bits, ieee.Enc(orig))
	}
	sparcBits, err := c.RealFromWire(w, ieee)
	if err != nil || ieee.Dec(sparcBits) != orig {
		t.Fatalf("sparc value %g (err %v)", ieee.Dec(sparcBits), err)
	}
	if sparcBits == vaxBits {
		t.Error("VAX and SPARC bits identical; format conversion is a no-op")
	}
	// And back to a VAX.
	backBits, err := c.RealFromWire(w, vax)
	if err != nil || vax.Dec(backBits) != orig {
		t.Fatalf("vax round trip %g (err %v)", vax.Dec(backBits), err)
	}
}

func TestRawConverterPassesBitsUnchanged(t *testing.T) {
	c := NewRawConverter()
	v := c.RealToWire(0xdeadbeef, arch.VAXFloat{})
	if v.Kind != WRaw || v.Bits != 0xdeadbeef {
		t.Fatalf("raw real = %+v", v)
	}
	back, err := c.RealFromWire(v, arch.VAXFloat{})
	if err != nil || back != 0xdeadbeef {
		t.Fatal("raw real roundtrip changed bits")
	}
	if c.Stats().Calls != 0 {
		t.Errorf("raw converter charged %d calls", c.Stats().Calls)
	}
	// References are still swizzled even on the fast path.
	r := c.RefToWire(oid.OID(5))
	if r.Kind != WRef || r.OID() != 5 {
		t.Errorf("raw ref = %+v", r)
	}
}

func TestConverterKindMismatch(t *testing.T) {
	c := NewCallConverter()
	if _, err := c.IntFromWire(RefV(1)); err == nil {
		t.Error("int from ref should fail")
	}
	if _, err := c.RealFromWire(IntV(1), arch.IEEEFloat{}); err == nil {
		t.Error("real from int should fail")
	}
	if _, err := c.RefFromWire(IntV(1)); err == nil {
		t.Error("ref from int should fail")
	}
	if o, err := c.RefFromWire(NilV()); err != nil || o != oid.Nil {
		t.Error("nil ref must decode to the nil OID")
	}
}

func roundtripMsg(t *testing.T, m *Msg) *Msg {
	t.Helper()
	buf := m.Marshal()
	got, err := Unmarshal(buf)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	return got
}

func TestInvokeRoundtrip(t *testing.T) {
	m := &Msg{Src: 1, Dst: 2, Seq: 77, Payload: &Invoke{
		Target: 55, OpName: "inc", CallerFrag: 0x01000009,
		Args:  []Value{IntV(3), StringV([]byte("hi")), RefV(12), NilV()},
		Hints: []LocHint{{OID: 12, Node: 3}},
	}}
	got := roundtripMsg(t, m)
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("roundtrip:\n%+v\n%+v", m.Payload, got.Payload)
	}
}

func TestReturnRoundtrip(t *testing.T) {
	m := &Msg{Src: 2, Dst: 1, Seq: 78, Payload: &Return{
		CallerFrag: 9, Ok: true, Result: RealBitsV(0x40490fdb),
	}}
	got := roundtripMsg(t, m)
	p := got.Payload.(*Return)
	if !p.Ok || p.Result.Bits != 0x40490fdb || p.CallerFrag != 9 {
		t.Fatalf("return = %+v", p)
	}
	m2 := &Msg{Src: 2, Dst: 1, Seq: 79, Payload: &Return{
		CallerFrag: 9, Ok: false, FaultMsg: "division by zero",
	}}
	p2 := roundtripMsg(t, m2).Payload.(*Return)
	if p2.Ok || p2.FaultMsg != "division by zero" {
		t.Fatalf("fault return = %+v", p2)
	}
}

func TestMoveRoundtrip(t *testing.T) {
	m := &Msg{Src: 0, Dst: 3, Seq: 5, Payload: &Move{
		Object: 100, CodeOID: 2, Fixed: true,
		Data:      []Value{IntV(13), RefV(101), StringV([]byte("name"))},
		MonLocked: true, MonHolder: 7,
		EntryQueue: []uint32{8, 9},
		CondQueues: [][]uint32{{10}, nil},
		Frags: []Fragment{{
			FragID: 7, LinkNode: 0, LinkFrag: 3, Status: FragRunnable, Executing: true,
			Acts: []MIActivation{
				{CodeOID: 2, FuncIndex: 1, Stop: 4,
					Vars:  []Value{IntV(1), RealBitsV(0x3f800000)},
					Temps: []Value{IntV(9)}},
				{CodeOID: 2, FuncIndex: 0, Stop: 2, Vars: []Value{NilV()}},
			},
		}, {
			FragID: 8, LinkNode: 1, LinkFrag: 44, Status: FragBlockedEntry,
			Acts: []MIActivation{{CodeOID: 2, FuncIndex: 1, Stop: EntryStop}},
		}},
		Hints: []LocHint{{OID: 101, Node: 0}},
	}}
	got := roundtripMsg(t, m)
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("move roundtrip:\n%+v\n%+v", m.Payload, got.Payload)
	}
}

func TestMoveReqLocateRoundtrips(t *testing.T) {
	for _, p := range []Payload{
		&MoveReq{Target: 9, Dest: 2, Fix: true},
		&UnfixReq{Target: 9, Refix: true, Dest: 1},
		&Locate{Target: 3, ReplyFrag: 12},
		&LocateReply{Target: 3, Node: -1, ReplyFrag: 12},
		&UpdateLoc{Target: 3, Node: 2},
	} {
		m := &Msg{Src: 1, Dst: 0, Seq: 1, Payload: p}
		got := roundtripMsg(t, m)
		if !reflect.DeepEqual(m, got) {
			t.Errorf("%T roundtrip mismatch", p)
		}
	}
}

// Three-slot decree fixtures: the first slot rides in the one-slot head,
// the other two as trailing entries.
var (
	dirMore = []DirSlotRef{{Target: 12, Epoch: 1}, {Target: 15, Epoch: 4}}
	dirVals = []DirSlotNode{{Target: 12, Epoch: 1, Node: 0}, {Target: 15, Epoch: 4, Node: 3}}
	dirAccs = []DirSlotAcc{{AccBallot: 0, AccNode: -1}, {AccBallot: 0x10001, AccNode: 2}}
)

func TestDirMessageRoundtrips(t *testing.T) {
	for _, p := range []Payload{
		&DirPrepare{Target: 9, Epoch: 3, Ballot: 0x1_0002_0003},
		&DirPromise{Target: 9, Epoch: 3, Ballot: 0x1_0002_0003, Ok: true,
			Promised: 0x1_0002_0003, AccBallot: 0x10001, AccNode: 2},
		&DirPromise{Target: 9, Epoch: 3, Ballot: 0x10001, Ok: false,
			Promised: 0x20001, AccNode: -1},
		&DirAccept{Target: 9, Epoch: 3, Ballot: 0x1_0002_0003, Node: 2},
		&DirAccepted{Target: 9, Epoch: 3, Ballot: 0x1_0002_0003, Ok: true,
			Promised: 0x1_0002_0003},
		&DirAccepted{Target: 9, Epoch: 3, Ballot: 0x10001, Ok: false, Promised: 0x30001},
		&DirLearn{Target: 9, Epoch: 3, Node: 2},
		&DirLookup{Target: 9, Token: 41},
		&DirLookupReply{Target: 9, Token: 41, Ok: true, Node: 2, Epoch: 3},
		&DirLookupReply{Target: 9, Token: 42, Node: -1},
	} {
		m := &Msg{Src: 1, Dst: 0, Seq: 1, Payload: p}
		got := roundtripMsg(t, m)
		if !reflect.DeepEqual(m, got) {
			t.Errorf("%T roundtrip mismatch:\n%+v\n%+v", p, m.Payload, got.Payload)
		}
	}
}

// TestDirGroupMessageRoundtrips: a group decree is a decree message with
// trailing per-slot entries; three-slot forms of every decree kind
// roundtrip, including a refused promise and a refused accept.
func TestDirGroupMessageRoundtrips(t *testing.T) {
	for _, p := range []Payload{
		&DirPrepare{Target: 9, Epoch: 3, Ballot: 0x1_0002_0003, More: &dirMore},
		&DirPromise{Target: 9, Epoch: 3, Ballot: 0x1_0002_0003, Ok: true,
			Promised: 0x1_0002_0003, AccBallot: 0, AccNode: -1, More: &dirAccs},
		&DirPromise{Target: 9, Epoch: 3, Ballot: 0x10001, Ok: false,
			Promised: 0x20001, AccNode: -1, More: &dirAccs},
		&DirAccept{Target: 9, Epoch: 3, Ballot: 0x1_0002_0003, Node: 2, More: &dirVals},
		&DirAccepted{Target: 9, Epoch: 3, Ballot: 0x1_0002_0003, Ok: true,
			Promised: 0x1_0002_0003},
		&DirAccepted{Target: 9, Epoch: 3, Ballot: 0x10001, Ok: false, Promised: 0x30001},
		&DirLearn{Target: 9, Epoch: 3, Node: 2, More: &dirVals},
	} {
		m := &Msg{Src: 1, Dst: 0, Seq: 1, Payload: p}
		got := roundtripMsg(t, m)
		if !reflect.DeepEqual(m, got) {
			t.Errorf("%T roundtrip mismatch:\n%+v\n%+v", p, m.Payload, got.Payload)
		}
	}
}

// TestDirOneSlotGoldenBytes pins the one-slot decree encoding: each of the
// five decree kinds must encode to exactly the bytes the single-decree
// protocol has always put on the wire (kind byte, Src, Dst, Seq, payload).
func TestDirOneSlotGoldenBytes(t *testing.T) {
	for _, c := range []struct {
		p   Payload
		hex string
	}{
		{&DirPrepare{Target: 9, Epoch: 3, Ballot: 0x1_0002_0003},
			"0b00000001000000000000000100000009000000030000000100020003"},
		{&DirPromise{Target: 9, Epoch: 3, Ballot: 0x1_0002_0003, Ok: true,
			Promised: 0x1_0002_0003, AccBallot: 0x10001, AccNode: 2},
			"0c00000001000000000000000100000009000000030000000100020003010000000100020003000000000001000100000002"},
		{&DirPromise{Target: 9, Epoch: 3, Ballot: 0x10001, Ok: false, Promised: 0x20001, AccNode: -1},
			"0c000000010000000000000001000000090000000300000000000100010000000000000200010000000000000000ffffffff"},
		{&DirAccept{Target: 9, Epoch: 3, Ballot: 0x1_0002_0003, Node: 2},
			"0d0000000100000000000000010000000900000003000000010002000300000002"},
		{&DirAccepted{Target: 9, Epoch: 3, Ballot: 0x1_0002_0003, Ok: true, Promised: 0x1_0002_0003},
			"0e00000001000000000000000100000009000000030000000100020003010000000100020003"},
		{&DirAccepted{Target: 9, Epoch: 3, Ballot: 0x10001, Ok: false, Promised: 0x30001},
			"0e00000001000000000000000100000009000000030000000000010001000000000000030001"},
		{&DirLearn{Target: 9, Epoch: 3, Node: 2},
			"0f000000010000000000000001000000090000000300000002"},
	} {
		got := hex.EncodeToString((&Msg{Src: 1, Dst: 0, Seq: 1, Payload: c.p}).Marshal())
		if got != c.hex {
			t.Errorf("%T encodes to\n%s\nwant\n%s", c.p, got, c.hex)
		}
	}
}

// TestDirDecodeRejects: a decree message whose trailing bytes are not a
// whole number of per-slot entries is malformed, and the kind bytes of the
// retired group-decree protocol (reserved after MDirLookupReply so later
// kinds keep their values) decode as unknown kinds.
func TestDirDecodeRejects(t *testing.T) {
	for _, c := range []struct {
		p     Payload
		entry int
	}{
		{&DirPrepare{Target: 9, Epoch: 3, Ballot: 1, More: &dirMore}, 8},
		{&DirPromise{Target: 9, Epoch: 3, Ballot: 1, Ok: true, AccNode: -1, More: &dirAccs}, 12},
		{&DirAccept{Target: 9, Epoch: 3, Ballot: 1, Node: 2, More: &dirVals}, 12},
		{&DirLearn{Target: 9, Epoch: 3, Node: 2, More: &dirVals}, 12},
	} {
		buf := (&Msg{Src: 1, Dst: 0, Seq: 1, Payload: c.p}).Marshal()
		for cut := 1; cut < c.entry; cut++ {
			if _, err := Unmarshal(buf[:len(buf)-cut]); err == nil {
				t.Errorf("%T with a %d-byte partial entry accepted", c.p, c.entry-cut)
			}
		}
		if _, err := Unmarshal(buf[:len(buf)-c.entry]); err != nil {
			t.Errorf("%T with one entry fewer rejected: %v", c.p, err)
		}
	}
	if MDirLookupReply != 17 {
		t.Fatalf("MDirLookupReply = %d; directory kind bytes moved", MDirLookupReply)
	}
	buf := (&Msg{Src: 1, Dst: 0, Seq: 1, Payload: &DirPrepare{Target: 9, Epoch: 3, Ballot: 1}}).Marshal()
	for k := byte(18); k <= 22; k++ {
		buf[0] = k
		if _, err := Unmarshal(buf); err == nil {
			t.Errorf("retired kind byte %d decoded", k)
		}
		if s := MsgKind(k).String(); s != fmt.Sprintf("msg(%d)", k) {
			t.Errorf("retired kind byte %d has name %q", k, s)
		}
	}
}

func TestEncDecU64(t *testing.T) {
	var e Enc
	e.U64(0xdead_beef_cafe_f00d)
	if e.Len() != 8 {
		t.Fatalf("U64 encoded %d bytes", e.Len())
	}
	d := Dec{buf: e.Bytes()}
	if v := d.U64(); v != 0xdead_beef_cafe_f00d || d.Err() != nil {
		t.Fatalf("U64 roundtrip = %x err=%v", v, d.Err())
	}
	short := Dec{buf: e.Bytes()[:5]}
	short.U64()
	if short.Err() == nil {
		t.Fatalf("truncated U64 must error")
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	if _, err := Unmarshal([]byte{0xff, 1, 2, 3}); err == nil {
		t.Error("unknown kind must fail")
	}
	if _, err := Unmarshal([]byte{byte(MInvoke), 1}); err == nil {
		t.Error("truncated invoke must fail")
	}
	m := &Msg{Src: 1, Dst: 2, Seq: 3, Payload: &Invoke{Target: 4, OpName: "x"}}
	buf := m.Marshal()
	if _, err := Unmarshal(buf[:len(buf)-3]); err == nil {
		t.Error("truncated tail must fail")
	}
}

func TestQuickValueRoundtrip(t *testing.T) {
	f := func(kind byte, bits uint32, str []byte) bool {
		v := Value{Kind: WKind(kind % 6), Bits: bits}
		if v.Kind == WString {
			v.Bits = 0
			v.Str = str
			if len(v.Str) == 0 {
				v.Str = nil
			}
		}
		e := &Enc{}
		e.Value(v)
		d := NewDec(e.Bytes())
		got := d.Value()
		if d.Err() != nil {
			return false
		}
		if len(got.Str) == 0 {
			got.Str = nil
		}
		return got.Kind == v.Kind && got.Bits == v.Bits && bytes.Equal(got.Str, v.Str)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWireSize(t *testing.T) {
	if IntV(1).WireSize() != 5 {
		t.Error("int size")
	}
	if StringV([]byte("abcd")).WireSize() != 9 {
		t.Error("string size")
	}
}

func TestDirLookupReplyLeaseRoundtrip(t *testing.T) {
	m := &Msg{Src: 1, Dst: 0, Seq: 1, Payload: &DirLookupReply{
		Target: 9, Token: 41, Ok: true, Node: 2, Epoch: 3, Lease: 150_000}}
	p := roundtripMsg(t, m).Payload.(*DirLookupReply)
	if p.Lease != 150_000 || !p.Ok || p.Node != 2 {
		t.Fatalf("lease reply = %+v", p)
	}
	// Lease-free replies stay lease-free.
	m2 := &Msg{Src: 1, Dst: 0, Seq: 2, Payload: &DirLookupReply{Target: 9, Token: 42, Node: -1}}
	if p2 := roundtripMsg(t, m2).Payload.(*DirLookupReply); p2.Lease != 0 {
		t.Fatalf("ghost lease %d", p2.Lease)
	}
}
