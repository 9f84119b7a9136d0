package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"

	"repro/internal/interp"
	"repro/internal/machine"
	"repro/internal/source/types"
	"repro/internal/structures"
)

// heapSig renders a heap as its public readers see it: every live node in
// allocation order with its non-zero Ints and non-nil Ptrs, pointers as
// allocation indices. A reader of Node.Ints or Node.Ptrs cannot tell an
// absent entry from a zero or nil one, so those collapse; a stale pointer
// left beside an int write does not.
func heapSig(h *interp.Heap) []byte {
	nodes := h.Live()
	idx := make(map[*interp.Node]int, len(nodes))
	for i, n := range nodes {
		idx[n] = i
	}
	var b bytes.Buffer
	var fields []string
	for i, n := range nodes {
		fields = fields[:0]
		for f, v := range n.Ints {
			if v != 0 {
				fields = append(fields, f+"="+strconv.FormatInt(v, 10))
			}
		}
		for f, t := range n.Ptrs {
			if t != nil {
				ti, ok := idx[t]
				if !ok {
					ti = -1 // a reference to a freed node
				}
				fields = append(fields, f+"=#"+strconv.Itoa(ti))
			}
		}
		sort.Strings(fields)
		b.WriteByte('#')
		b.WriteString(strconv.Itoa(i))
		b.WriteString(n.Type)
		b.WriteByte('{')
		for j, f := range fields {
			if j > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(f)
		}
		b.WriteString("}\n")
	}
	return b.Bytes()
}

// retSig renders a returned value so the interpreter's and the machine's
// agree: NULL and 0 read the same, a node by its allocation id.
func retSig(isPtr bool, n *interp.Node, v int64) string {
	if isPtr {
		if n == nil {
			return "0"
		}
		return "#" + strconv.Itoa(n.ID)
	}
	return strconv.FormatInt(v, 10)
}

func valueSig(v interp.Value) string { return retSig(v.IsPtr, v.Ptr, v.Int) }
func wordSig(w machine.Word) string  { return retSig(w.IsRef, w.Ref, w.Int) }

// inputRNG seeds the input for one (function, size, pass): the same seed
// gives the same structure for the interpreter and every variant.
func inputRNG(seed int64, key string, size, pass int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d/%d", seed, key, size, pass)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// buildInput allocates the arguments of a function into a fresh heap: a
// random well-formed structure for each pointer parameter, the size for
// each int parameter. ok is false when a parameter's structure is not one
// structures.Random builds.
func buildInput(fi *types.FuncInfo, rng *rand.Rand, size int) (h *interp.Heap, args []interp.Value, ok bool) {
	h = interp.NewHeap()
	for _, p := range fi.Decl.Params {
		switch t := fi.Vars[p.Name]; t.Kind {
		case types.KindPointer:
			roots, err := structures.Random(h, rng, t.Record, size)
			if err != nil || len(roots) == 0 {
				return nil, nil, false
			}
			args = append(args, interp.PtrVal(roots[0]))
		case types.KindInt:
			args = append(args, interp.IntVal(int64(size)))
		default:
			return nil, nil, false
		}
	}
	return h, args, true
}

// machineArgs binds the interpreter arguments to parameter registers.
func machineArgs(fi *types.FuncInfo, args []interp.Value) map[string]machine.Word {
	out := make(map[string]machine.Word, len(args))
	for i, p := range fi.Decl.Params {
		if args[i].IsPtr {
			out[p.Name] = machine.RefWord(args[i].Ptr)
		} else {
			out[p.Name] = machine.IntWord(args[i].Int)
		}
	}
	return out
}
