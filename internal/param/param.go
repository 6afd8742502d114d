// Package param defines learning-configuration parameter spaces — step (b)
// of the paper's methodology. A Space is a named collection of parameters
// (categorical, integer-range, float-range, optionally log-scaled); an
// Assignment is one concrete configuration drawn from it. Spaces support
// both random sampling (for Random Search) and exhaustive enumeration (for
// Grid Search).
package param

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"
)

// Kind discriminates Value payloads.
type Kind int

// Value kinds.
const (
	KindString Kind = iota
	KindInt
	KindFloat
)

// Value is one parameter setting.
type Value struct {
	kind Kind
	s    string
	i    int
	f    float64
}

// String wraps a categorical value.
func Str(s string) Value { return Value{kind: KindString, s: s} }

// Int wraps an integer value.
func Int(i int) Value { return Value{kind: KindInt, i: i} }

// Float wraps a float value.
func Float(f float64) Value { return Value{kind: KindFloat, f: f} }

// Kind returns the value kind.
func (v Value) Kind() Kind { return v.kind }

// Str returns the categorical payload (empty for non-strings).
func (v Value) Str() string { return v.s }

// Int returns the integer payload; float values are truncated.
func (v Value) Int() int {
	if v.kind == KindFloat {
		return int(v.f)
	}
	return v.i
}

// Float returns the numeric payload (ints are widened).
func (v Value) Float() float64 {
	if v.kind == KindInt {
		return float64(v.i)
	}
	return v.f
}

// String renders the value.
func (v Value) String() string {
	switch v.kind {
	case KindString:
		return v.s
	case KindInt:
		return strconv.Itoa(v.i)
	default:
		return strconv.FormatFloat(v.f, 'g', 4, 64)
	}
}

// AppendText appends String's rendering to dst without allocating —
// the journal's arena encoder depends on the two staying byte-identical.
func (v Value) AppendText(dst []byte) []byte {
	switch v.kind {
	case KindString:
		return append(dst, v.s...)
	case KindInt:
		return strconv.AppendInt(dst, int64(v.i), 10)
	default:
		return strconv.AppendFloat(dst, v.f, 'g', 4, 64)
	}
}

// Equal reports payload equality.
func (v Value) Equal(o Value) bool { return v == o }

// Param is one dimension of a search space.
type Param interface {
	// Name returns the parameter name.
	Name() string
	// Sample draws a uniform random value.
	Sample(rng *rand.Rand) Value
	// Enumerate lists the parameter's grid values (discretizing continuous
	// ranges).
	Enumerate() []Value
	// Count is len(Enumerate()), without building the list.
	Count() int
	// Contains reports whether v is a valid setting.
	Contains(v Value) bool
}

// Categorical is a finite set of string options.
type Categorical struct {
	name    string
	Options []string
}

// NewCategorical builds a categorical parameter.
func NewCategorical(name string, options ...string) Categorical {
	if len(options) == 0 {
		panic("param: categorical needs options")
	}
	return Categorical{name: name, Options: options}
}

// Name implements Param.
func (c Categorical) Name() string { return c.name }

// Sample implements Param.
func (c Categorical) Sample(rng *rand.Rand) Value { return Str(c.Options[rng.IntN(len(c.Options))]) }

// Enumerate implements Param.
func (c Categorical) Enumerate() []Value {
	out := make([]Value, len(c.Options))
	for i, o := range c.Options {
		out[i] = Str(o)
	}
	return out
}

// Count implements Param.
func (c Categorical) Count() int { return len(c.Options) }

// Contains implements Param.
func (c Categorical) Contains(v Value) bool {
	if v.Kind() != KindString {
		return false
	}
	for _, o := range c.Options {
		if o == v.Str() {
			return true
		}
	}
	return false
}

// IntSet is a finite set of integer options (e.g. Runge-Kutta order
// ∈ {3, 5, 8}).
type IntSet struct {
	name    string
	Options []int
}

// NewIntSet builds an integer-set parameter.
func NewIntSet(name string, options ...int) IntSet {
	if len(options) == 0 {
		panic("param: int set needs options")
	}
	return IntSet{name: name, Options: options}
}

// Name implements Param.
func (p IntSet) Name() string { return p.name }

// Sample implements Param.
func (p IntSet) Sample(rng *rand.Rand) Value { return Int(p.Options[rng.IntN(len(p.Options))]) }

// Enumerate implements Param.
func (p IntSet) Enumerate() []Value {
	out := make([]Value, len(p.Options))
	for i, o := range p.Options {
		out[i] = Int(o)
	}
	return out
}

// Count implements Param.
func (p IntSet) Count() int { return len(p.Options) }

// Contains implements Param.
func (p IntSet) Contains(v Value) bool {
	if v.Kind() != KindInt {
		return false
	}
	for _, o := range p.Options {
		if o == v.Int() {
			return true
		}
	}
	return false
}

// IntRange is an inclusive integer interval.
type IntRange struct {
	name   string
	Lo, Hi int
}

// NewIntRange builds an integer-range parameter over [lo, hi]. It panics
// if the range is empty or holds more values than an int counts.
func NewIntRange(name string, lo, hi int) IntRange {
	if hi < lo {
		panic("param: empty int range")
	}
	if !IntRangeFits(lo, hi) {
		panic("param: int range holds more values than an int counts")
	}
	return IntRange{name: name, Lo: lo, Hi: hi}
}

// IntRangeFits reports whether the non-empty range [lo, hi] holds at most
// math.MaxInt values, so that its Count and its sampler's hi − lo + 1 do
// not overflow. The difference is exact in uint64 and wraps to zero only
// at 2^64 values.
func IntRangeFits(lo, hi int) bool {
	n := uint64(hi) - uint64(lo) + 1
	return n != 0 && n <= math.MaxInt
}

// Name implements Param.
func (p IntRange) Name() string { return p.name }

// Sample implements Param.
func (p IntRange) Sample(rng *rand.Rand) Value { return Int(p.Lo + rng.IntN(p.Hi-p.Lo+1)) }

// Enumerate implements Param.
func (p IntRange) Enumerate() []Value {
	out := make([]Value, 0, p.Hi-p.Lo+1)
	for i := p.Lo; i <= p.Hi; i++ {
		out = append(out, Int(i))
	}
	return out
}

// Count implements Param.
func (p IntRange) Count() int { return p.Hi - p.Lo + 1 }

// Contains implements Param.
func (p IntRange) Contains(v Value) bool {
	return v.Kind() == KindInt && v.Int() >= p.Lo && v.Int() <= p.Hi
}

// FloatRange is a continuous interval, optionally log-scaled, with a grid
// discretization for enumeration.
type FloatRange struct {
	name       string
	Lo, Hi     float64
	Log        bool
	GridPoints int // Enumerate() resolution (default 5)
}

// NewFloatRange builds a float-range parameter over [lo, hi].
func NewFloatRange(name string, lo, hi float64) FloatRange {
	if hi < lo {
		panic("param: empty float range")
	}
	return FloatRange{name: name, Lo: lo, Hi: hi, GridPoints: 5}
}

// NewLogFloatRange builds a log-uniform float parameter over [lo, hi]
// (both must be positive).
func NewLogFloatRange(name string, lo, hi float64) FloatRange {
	if lo <= 0 || hi < lo {
		panic("param: log range needs 0 < lo <= hi")
	}
	return FloatRange{name: name, Lo: lo, Hi: hi, Log: true, GridPoints: 5}
}

// Name implements Param.
func (p FloatRange) Name() string { return p.name }

// Sample implements Param.
func (p FloatRange) Sample(rng *rand.Rand) Value {
	if p.Log {
		return Float(math.Exp(math.Log(p.Lo) + rng.Float64()*(math.Log(p.Hi)-math.Log(p.Lo))))
	}
	return Float(p.Lo + rng.Float64()*(p.Hi-p.Lo))
}

// Enumerate implements Param.
func (p FloatRange) Enumerate() []Value {
	n := p.Count()
	out := make([]Value, n)
	for i := 0; i < n; i++ {
		t := float64(i) / float64(n-1)
		if p.Log {
			out[i] = Float(math.Exp(math.Log(p.Lo) + t*(math.Log(p.Hi)-math.Log(p.Lo))))
		} else {
			out[i] = Float(p.Lo + t*(p.Hi-p.Lo))
		}
	}
	return out
}

// Count implements Param: the grid has GridPoints points, at least 2.
func (p FloatRange) Count() int { return max(p.GridPoints, 2) }

// Contains implements Param.
func (p FloatRange) Contains(v Value) bool {
	if v.Kind() != KindFloat && v.Kind() != KindInt {
		return false
	}
	f := v.Float()
	return f >= p.Lo && f <= p.Hi
}

// Binding is one name→value pair of an Assignment.
type Binding struct {
	Name  string
	Value Value
}

// Bind constructs a Binding.
func Bind(name string, v Value) Binding { return Binding{Name: name, Value: v} }

// Assignment is one concrete configuration: a slice of bindings kept
// sorted by parameter name. The slice representation (vs. a map) holds a
// whole assignment in a single allocation — or zero, when sampled into a
// caller-owned buffer — and the sorted invariant makes Key, String, and
// journal encodings canonical without per-call sorting. A nil Assignment
// is a valid empty assignment.
type Assignment []Binding

// Assign builds an Assignment from bindings, sorting by name. Duplicate
// names keep the last binding.
func Assign(bs ...Binding) Assignment {
	var a Assignment
	for _, b := range bs {
		a.Set(b.Name, b.Value)
	}
	return a
}

// Get returns the value bound to name.
func (a Assignment) Get(name string) (Value, bool) {
	for _, b := range a {
		if b.Name == name {
			return b.Value, true
		}
	}
	return Value{}, false
}

// Value returns the value bound to name (zero Value if absent).
func (a Assignment) Value(name string) Value {
	v, _ := a.Get(name)
	return v
}

// Has reports whether name is bound.
func (a Assignment) Has(name string) bool {
	_, ok := a.Get(name)
	return ok
}

// Set binds name to v, inserting in sorted position.
func (a *Assignment) Set(name string, v Value) {
	s := *a
	i, found := sort.Find(len(s), func(i int) int { return strings.Compare(name, s[i].Name) })
	if found {
		s[i].Value = v
		return
	}
	s = append(s, Binding{})
	copy(s[i+1:], s[i:])
	s[i] = Binding{Name: name, Value: v}
	*a = s
}

// Clone returns a copy.
func (a Assignment) Clone() Assignment {
	out := make(Assignment, len(a))
	copy(out, a)
	return out
}

// Key returns a canonical string form usable for deduplication.
func (a Assignment) Key() string {
	var b strings.Builder
	for i, kv := range a {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv.Name)
		b.WriteByte('=')
		b.WriteString(kv.Value.String())
	}
	return b.String()
}

// String renders the assignment (same as Key).
func (a Assignment) String() string { return a.Key() }

// Space is an ordered collection of parameters.
type Space struct {
	params []Param
	byName map[string]int
	// rank[i] is the position of params[i] in name-sorted order; sampling
	// draws in declaration order (fixing the RNG consumption sequence) but
	// writes bindings at their sorted slot so the Assignment invariant
	// holds without a per-sample sort.
	rank []int
}

// NewSpace builds a Space; parameter names must be unique and non-empty.
func NewSpace(params ...Param) (*Space, error) {
	if len(params) == 0 {
		return nil, fmt.Errorf("param: empty space")
	}
	s := &Space{byName: make(map[string]int)}
	for _, p := range params {
		if p.Name() == "" {
			return nil, fmt.Errorf("param: unnamed parameter")
		}
		if _, dup := s.byName[p.Name()]; dup {
			return nil, fmt.Errorf("param: duplicate parameter %q", p.Name())
		}
		s.byName[p.Name()] = len(s.params)
		s.params = append(s.params, p)
	}
	s.rank = make([]int, len(s.params))
	for i := range s.params {
		for j := range s.params {
			if s.params[j].Name() < s.params[i].Name() {
				s.rank[i]++
			}
		}
	}
	return s, nil
}

// MustSpace is NewSpace that panics on error.
func MustSpace(params ...Param) *Space {
	s, err := NewSpace(params...)
	if err != nil {
		panic(err)
	}
	return s
}

// Params returns the parameters in declaration order.
func (s *Space) Params() []Param { return s.params }

// Get returns the parameter with the given name.
func (s *Space) Get(name string) (Param, bool) {
	i, ok := s.byName[name]
	if !ok {
		return nil, false
	}
	return s.params[i], true
}

// Sample draws a uniform random assignment.
func (s *Space) Sample(rng *rand.Rand) Assignment {
	return s.SampleInto(rng, nil)
}

// SampleInto draws a uniform random assignment into dst's backing array,
// reallocating only when dst's capacity is too small. The RNG consumption
// order is the parameters' declaration order, identical to Sample.
func (s *Space) SampleInto(rng *rand.Rand, dst Assignment) Assignment {
	if cap(dst) < len(s.params) {
		dst = make(Assignment, len(s.params))
	} else {
		dst = dst[:len(s.params)]
	}
	for i, p := range s.params {
		dst[s.rank[i]] = Binding{Name: p.Name(), Value: p.Sample(rng)}
	}
	return dst
}

// Contains reports whether a is a complete, valid assignment of the space.
func (s *Space) Contains(a Assignment) bool {
	if len(a) != len(s.params) {
		return false
	}
	for _, p := range s.params {
		v, ok := a.Get(p.Name())
		if !ok || !p.Contains(v) {
			return false
		}
	}
	return true
}
