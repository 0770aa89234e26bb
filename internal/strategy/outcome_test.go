package strategy

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestOutcomeShape pins Outcome's memory shape. A scale-1.0 grid holds
// 270,600 outcomes per ResultSet, so every byte of Outcome is about
// 0.27 MB per pass held, and every pointer word is one more word the
// garbage collector scans in each of them. Outcome carries no model or
// method (its cell names them): at most 72 bytes, and pointers in only
// FactID and Explanation. A new string, slice, map or pointer field fails
// here; keep it in the cell, or in a table the outcome indexes.
func TestOutcomeShape(t *testing.T) {
	if size := unsafe.Sizeof(Outcome{}); size > 72 {
		t.Errorf("Outcome is %d bytes, want at most 72", size)
	}
	var pointerFields []string
	typ := reflect.TypeOf(Outcome{})
	for i := range typ.NumField() {
		if f := typ.Field(i); hasPointers(f.Type) {
			pointerFields = append(pointerFields, f.Name)
		}
	}
	if want := []string{"FactID", "Explanation"}; !reflect.DeepEqual(pointerFields, want) {
		t.Errorf("fields carrying pointers: %v, want %v", pointerFields, want)
	}
}

// hasPointers reports whether a value of type t holds a pointer the
// garbage collector must scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.String, reflect.Pointer, reflect.UnsafePointer, reflect.Slice,
		reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
		return true
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}
