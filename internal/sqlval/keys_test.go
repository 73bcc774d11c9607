package sqlval

import (
	"math"
	"testing"
)

func TestAppendKeyInjective(t *testing.T) {
	vals := []Value{
		Null,
		NewInt(0), NewInt(2), NewInt(-7), NewInt(math.MaxInt64),
		NewFloat(0), NewFloat(2), NewFloat(2.5), NewFloat(-7), NewFloat(1e21),
		NewString(""), NewString("2"), NewString("true"), NewString("a|b"),
		NewBool(true), NewBool(false),
	}
	seen := map[string]Value{}
	for _, v := range vals {
		k := string(AppendKey(nil, v))
		if prev, dup := seen[k]; dup {
			t.Errorf("AppendKey collision: %v (%s) and %v (%s) → %q",
				prev, prev.Type(), v, v.Type(), k)
		}
		seen[k] = v
	}
	// Raw keys keep INTEGER 2 and DOUBLE 2.0 distinct (DISTINCT semantics).
	if string(AppendKey(nil, NewInt(2))) == string(AppendKey(nil, NewFloat(2))) {
		t.Error("AppendKey must not fold int and float")
	}
}

// Concatenated keys of a tuple must stay injective: the same bytes must
// not arise from a different split of string content.
func TestAppendKeyTupleInjective(t *testing.T) {
	tuples := [][]Value{
		{NewString("ab"), NewString("c")},
		{NewString("a"), NewString("bc")},
		{NewString("as2:i1"), Null},
		{NewString("as2:"), NewInt(1)},
		{NewString(""), NewString("")},
		{NewString("")},
		{NewInt(12), NewInt(3)},
		{NewInt(1), NewInt(23)},
	}
	seen := map[string]int{}
	for i, tup := range tuples {
		var key []byte
		for _, v := range tup {
			key = AppendKey(key, v)
		}
		if j, dup := seen[string(key)]; dup {
			t.Errorf("tuple %d and %d share key %q", j, i, key)
		}
		seen[string(key)] = i
	}
}

func TestAppendJoinKeyMatchesCompare(t *testing.T) {
	vals := []Value{
		NewInt(0), NewInt(2), NewInt(-7),
		NewFloat(0), NewFloat(2), NewFloat(2.5), NewFloat(-7), NewFloat(1e21),
		NewString("2"), NewString("x"),
		NewBool(true), NewBool(false),
	}
	for _, a := range vals {
		for _, b := range vals {
			ka := string(AppendJoinKey(nil, a))
			kb := string(AppendJoinKey(nil, b))
			c, err := Compare(a, b)
			equal := err == nil && c == 0
			if equal != (ka == kb) {
				t.Errorf("join key for %v (%s) vs %v (%s): keyEq=%v compareEq=%v",
					a, a.Type(), b, b.Type(), ka == kb, equal)
			}
		}
	}
}

func TestAppendKeyReusesBuffer(t *testing.T) {
	buf := make([]byte, 0, 64)
	k1 := AppendKey(buf, NewString("hello"))
	if &k1[0] != &buf[:1][0] {
		t.Error("AppendKey should write into the provided buffer")
	}
}

// AppendIdentityKey separates exactly what == folds or loses: -0.0 from
// +0.0, and a NaN from nothing but itself. Tuples stay injective.
func TestAppendIdentityKey(t *testing.T) {
	key := func(vs ...Value) string {
		var k []byte
		for _, v := range vs {
			k = AppendIdentityKey(k, v)
		}
		return string(k)
	}
	negZero := NewFloat(math.Copysign(0, -1))
	if key(negZero) == key(NewFloat(0)) {
		t.Error("-0.0 and +0.0 must not share a key")
	}
	if nan := NewFloat(math.NaN()); key(nan) != key(nan) {
		t.Error("a NaN must match itself")
	}
	distinct := [][]Value{
		{Null}, {NewInt(0)}, {NewFloat(0)}, {negZero},
		{NewBool(false)}, {NewBool(true)}, {NewInt(2)}, {NewFloat(2)},
		{NewString("ab"), NewString("c")}, {NewString("a"), NewString("bc")},
		{NewString(""), NewString("")}, {NewString("")},
		{NewInt(12), NewInt(3)}, {NewInt(1), NewInt(23)},
	}
	seen := map[string]int{}
	for i, tup := range distinct {
		k := key(tup...)
		if j, dup := seen[k]; dup {
			t.Errorf("tuples %v and %v share key %q", distinct[j], tup, k)
		}
		seen[k] = i
	}
}
