package table

import "fmt"

// This file is the serialization seam the durability layer builds on: a
// column decomposes into (definition, ordered dictionary values, code vector)
// and reassembles from the same parts (Builder.AddParts) with *identical*
// code assignment.
// Codes are assigned by interning order (1, 2, 3, ... — see dict.code), so
// re-interning DictValues in order reproduces every code, which makes a
// snapshot-restored table's row image — and therefore its fingerprint and
// any cached aggregate checksum derived from it — byte-identical to the
// original. That bytewise stability is what recovery verification and warm
// cache restore assert against.

// DictValues returns the column's distinct non-null dictionary values in code
// order: element i is the value of code i+1. Re-interning them in order into
// a fresh column reproduces the same code assignment.
//
// Not safe to call concurrently with an Append on a newer snapshot of the
// same lineage (the dictionary backing is shared); callers serialize against
// the append path, exactly like the append path itself does.
func (c *Column) DictValues() []Value {
	n := c.dict.size()
	out := make([]Value, n)
	for i := 0; i < n; i++ {
		out[i] = c.dict.value(uint32(i + 1))
	}
	return out
}

// AddParts declares a column rebuilt from its serialized decomposition — the
// definition, the dictionary values in code order, and the code vector, one
// code per row of the builder — and writes its codes. The column owns a
// fresh dictionary (no sharing with any live table) whose code assignment is
// identical to the column DictValues came from. Malformed parts (a NULL,
// mistyped or duplicate value, a code past the dictionary, a wrong row
// count) return an error and declare nothing.
func (b *Builder) AddParts(def ColumnDef, dictVals []Value, codes []uint32) (int, error) {
	if len(codes) != b.rows {
		return 0, fmt.Errorf("table: column %q has %d rows, want %d", def.Name, len(codes), b.rows)
	}
	d := newDict(def.Typ)
	for i, v := range dictVals {
		if v.Null {
			return 0, fmt.Errorf("table: column %q dictionary value %d is NULL", def.Name, i)
		}
		if v.Typ != def.Typ {
			return 0, fmt.Errorf("table: column %q dictionary value %d is %s, want %s", def.Name, i, v.Typ, def.Typ)
		}
		if code := d.code(v); code != uint32(i+1) {
			return 0, fmt.Errorf("table: column %q dictionary value %d interned as code %d (duplicate value?)", def.Name, i, code)
		}
	}
	limit := uint32(len(dictVals))
	for i, code := range codes {
		if code > limit {
			return 0, fmt.Errorf("table: column %q row %d has code %d beyond dictionary size %d", def.Name, i, code, limit)
		}
	}
	c := b.add(&Column{def: def, dict: d})
	for r, code := range codes {
		b.Set(r, c, code)
	}
	return c, nil
}
