package mc

import (
	"strconv"
	"strings"

	"fveval/internal/bitvec"
	"fveval/internal/logic"
	"fveval/internal/rtl"
	"fveval/internal/sva"
)

// Frames caches unrolled transition-relation frames across checks of
// one design (DESIGN.md §7). Design2SVA judges dozens of candidate
// testbench snippets against the same RTL; every candidate elaborates
// to its own rtl.System, yet its registers' next-state logic is almost
// always the design's own. For each transition-relation fingerprint
// and initial-state mode (reset constants for BMC, free state for
// induction) a Frames keeps one template builder, unrolled lazily frame
// by frame by the same frameEnv code a session would run, and every
// session copies the frames it needs out of it instead of re-deriving
// them. The copies are node-for-node what the session would have built
// itself, so verdicts, depths, counterexamples and solver work are
// unchanged; the register logic is just unrolled once per design
// instead of once per check.
//
// A Frames is not a verdict memo and is not safe for concurrent use:
// give each goroutine its own, and let it die with the design it
// served (each template holds a builder of every frame asked for).
type Frames struct {
	sys       *rtl.System // system of the last lookup...
	fp        string      // ...and its fingerprint ("" = not cacheable)
	templates map[frameKey]*template
}

type frameKey struct {
	fp   string
	free bool
}

// NewFrames returns an empty frame cache; it allocates nothing until
// a check first asks it for frames.
func NewFrames() *Frames { return &Frames{} }

// template returns the template for sys's transition relation in the
// given initial-state mode, creating it on first use; nil when fs is
// nil or the relation cannot be fingerprinted.
func (fs *Frames) template(sys *rtl.System, free bool) *template {
	if fs == nil {
		return nil
	}
	if sys != fs.sys {
		fs.sys, fs.fp = sys, fingerprint(sys)
	}
	if fs.fp == "" {
		return nil
	}
	key := frameKey{fs.fp, free}
	t := fs.templates[key]
	if t == nil {
		if fs.templates == nil {
			fs.templates = map[frameKey]*template{}
		}
		t = newTemplate(sys, free)
		fs.templates[key] = t
	}
	return t
}

// template is one transition relation unrolled over its own builder.
// Frame p is the builder's nodes [marks[p-1], marks[p]) — built by
// evaluating every register's next state at p-1 — with the nets
// numbered [nets[p-1], nets[p]) among them; frame 0 is the initial
// state alone. inLog lists the input vectors in creation order.
type template struct {
	fe    *frameEnv
	marks []int // per built frame: node index bound
	nets  []int // per built frame: nets built so far
	err   error // why frame len(marks) could not be built
}

func newTemplate(sys *rtl.System, free bool) *template {
	fe := newFrameEnv(logic.NewBuilder(), sys)
	fe.initFrame0(free)
	fe.record = true
	fe.netSeq = map[sigPos]int{}
	return &template{fe: fe, marks: []int{fe.b.NumNodes() + 1}, nets: []int{0}}
}

// build unrolls the template through frame p, or reports the unroll
// error that stops it short of p.
func (t *template) build(p int) error {
	for len(t.marks) <= p {
		if t.err != nil {
			return t.err
		}
		if t.err = t.fe.unroll(len(t.marks) + 1); t.err != nil {
			return t.err
		}
		t.marks = append(t.marks, t.fe.b.NumNodes()+1)
		t.nets = append(t.nets, len(t.fe.netSeq))
	}
	return nil
}

// frameCopy is one session's view of a template: remap sends template
// node indices to the session's nodes.
type frameCopy struct {
	t       *template
	remap   []logic.Node
	frames  int // frames held (frame 0 from the start)
	nextIn  int // template input vectors mapped so far...
	nextBit int // ...and bits of the next one
}

// newFrameCopy starts a copy of t for a session whose builder holds
// exactly t's frame 0 (see frameEnv.useFrames), node for node.
func newFrameCopy(t *template) *frameCopy {
	remap := make([]logic.Node, t.marks[0])
	for i := range remap {
		remap[i] = logic.Node(i << 1)
	}
	return &frameCopy{t: t, remap: remap, frames: 1}
}

// input returns the image-of-an-input callback for CopyFrom: template
// input nodes are met in creation order, vector by vector and bit by
// bit. A signal input the session has not built yet is created whole,
// exactly where frameEnv.Signal would have created it.
func (c *frameCopy) input(fe *frameEnv) func() logic.Node {
	return func() logic.Node {
		key := c.t.fe.inLog[c.nextIn]
		bv, ok := fe.inputs[key]
		if !ok {
			bv = bitvec.Inputs(fe.b, fe.sys.Widths[key.name])
			fe.inputs[key] = bv
		}
		n := bv.Bits[c.nextBit]
		if c.nextBit++; c.nextBit == len(bv.Bits) {
			c.nextIn, c.nextBit = c.nextIn+1, 0
		}
		return n
	}
}

// unroll copies frames up to n (exclusive) into fe: the nodes, then
// the register states they define. A frame the template could not
// build fails with the error unrolling it here would have raised.
func (c *frameCopy) unroll(fe *frameEnv, n int) error {
	t := c.t
	for p := c.frames; p < n; p++ {
		if err := t.build(p); err != nil {
			return err
		}
		from, to := t.marks[p-1], t.marks[p]
		c.remap = append(c.remap, make([]logic.Node, to-from)...)
		fe.b.CopyFrom(t.fe.b, from, to, c.remap, c.input(fe))
		for _, r := range fe.sys.Regs {
			key := sigPos{r.Name, p}
			fe.states[key] = c.mapBV(t.fe.states[key])
		}
		c.frames = p + 1
	}
	return nil
}

// net returns the image of a net the copied frames built, if any: the
// value frameEnv.Signal would find already cached had the session
// unrolled those frames itself.
func (c *frameCopy) net(key sigPos) (bitvec.BV, bool) {
	t := c.t
	if seq, ok := t.fe.netSeq[key]; !ok || seq >= t.nets[c.frames-1] {
		return bitvec.BV{}, false
	}
	return c.mapBV(t.fe.nets[key]), true
}

// mapBV maps a template vector into the session.
func (c *frameCopy) mapBV(v bitvec.BV) bitvec.BV {
	bits := make([]logic.Node, len(v.Bits))
	for i, n := range v.Bits {
		bits[i] = n.Map(c.remap)
	}
	return bitvec.BV{Bits: bits}
}

// fingerprint serializes everything unrolling sys's registers reads:
// each register's width, reset value and next-state expression, then
// every identifier those expressions reach — transitively through net
// definitions — with all the ways frameEnv and the expression evaluator
// may resolve it (declared width, input, register, constant, net).
// Two systems with equal fingerprints unroll to isomorphic circuits.
// "" means an expression kind the serializer does not know; such
// systems are unrolled directly.
func fingerprint(sys *rtl.System) string {
	w := fpWriter{seen: map[string]bool{}, ok: true}
	for _, r := range sys.Regs {
		w.str("reg", r.Name)
		w.num(int64(r.Width))
		w.unum(r.Init)
		w.expr(r.Next)
	}
	// w.names grows as net definitions reference further names.
	for i := 0; i < len(w.names); i++ {
		name := w.names[i]
		w.str("sig", name)
		width, declared := sys.Widths[name]
		_, isReg := sys.RegByName(name)
		c, isConst := sys.Consts[name]
		w.flag(declared)
		w.num(int64(width))
		w.flag(sys.IsInput(name))
		w.flag(isReg)
		w.flag(isConst)
		w.unum(c.Value)
		w.num(int64(c.Width))
		if net, ok := sys.NetByName(name); ok {
			w.str("net", "")
			w.num(int64(net.Width))
			w.expr(net.Expr)
		}
	}
	if !w.ok {
		return ""
	}
	return w.b.String()
}

type fpWriter struct {
	b     strings.Builder
	names []string // identifiers in first-reference order
	seen  map[string]bool
	ok    bool
	buf   []byte
}

func (w *fpWriter) str(tag, s string) {
	w.b.WriteString(tag)
	w.b.WriteByte(':')
	w.buf = strconv.AppendQuote(w.buf[:0], s)
	w.b.Write(w.buf)
	w.b.WriteByte(' ')
}

func (w *fpWriter) num(n int64) {
	w.buf = strconv.AppendInt(w.buf[:0], n, 10)
	w.b.Write(w.buf)
	w.b.WriteByte(' ')
}

func (w *fpWriter) unum(n uint64) {
	w.buf = strconv.AppendUint(w.buf[:0], n, 10)
	w.b.Write(w.buf)
	w.b.WriteByte(' ')
}

func (w *fpWriter) flag(v bool) {
	if v {
		w.b.WriteString("1 ")
	} else {
		w.b.WriteString("0 ")
	}
}

// expr writes e in prefix form: a tag, the node's own fields, then its
// children, so distinct trees never serialize alike.
func (w *fpWriter) expr(e sva.Expr) {
	switch v := e.(type) {
	case nil:
		w.b.WriteString("nil ")
	case *sva.Ident:
		w.str("id", v.Name)
		if !w.seen[v.Name] {
			w.seen[v.Name] = true
			w.names = append(w.names, v.Name)
		}
	case *sva.Num:
		w.str("num", v.Text)
		w.unum(v.Value)
		w.num(int64(v.Width))
		w.flag(v.Fill)
	case *sva.Unary:
		w.str("un", v.Op)
		w.expr(v.X)
	case *sva.Binary:
		w.str("bin", v.Op)
		w.expr(v.X)
		w.expr(v.Y)
	case *sva.Cond:
		w.b.WriteString("cond ")
		w.expr(v.C)
		w.expr(v.T)
		w.expr(v.E)
	case *sva.Call:
		w.str("call", v.Name)
		w.num(int64(len(v.Args)))
		for _, a := range v.Args {
			w.expr(a)
		}
	case *sva.Concat:
		w.b.WriteString("cat ")
		w.num(int64(len(v.Parts)))
		for _, p := range v.Parts {
			w.expr(p)
		}
	case *sva.Repl:
		w.b.WriteString("repl ")
		w.expr(v.Count)
		w.expr(v.Value)
	case *sva.Index:
		w.b.WriteString("idx ")
		w.expr(v.X)
		w.expr(v.Idx)
	case *sva.Select:
		w.b.WriteString("sel ")
		w.expr(v.X)
		w.expr(v.Hi)
		w.expr(v.Lo)
	case *sva.WidthCast:
		w.b.WriteString("cast ")
		w.num(int64(v.W))
		w.expr(v.X)
	default:
		w.ok = false
	}
}
