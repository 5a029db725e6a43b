package noftl

import (
	"fmt"
	"reflect"
	"slices"
	"strings"

	"noftl/internal/flash"
)

// DeviceOf returns the flash device under db, for the tests of package
// noftl_test.
func DeviceOf(db *DB) *flash.Device { return db.dev }

// WalkFields calls fn with every leaf field of v (unexported ones included),
// each under its promoted path: an embedded struct adds no element to the
// path of its fields, and a slice or array element is named by its index.
// A path therefore names a field the way a selector does, whatever struct
// declares it.
func WalkFields(v any, fn func(path string, leaf reflect.Value)) {
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := range v.NumField() {
				f, p := v.Type().Field(i), path
				if !f.Anonymous {
					p = strings.TrimPrefix(path+"."+f.Name, ".")
				}
				walk(p, v.Field(i))
			}
		case reflect.Slice, reflect.Array:
			for i := range v.Len() {
				walk(fmt.Sprintf("%s[%d]", path, i), v.Index(i))
			}
		default:
			fn(path, v)
		}
	}
	walk("", reflect.ValueOf(v))
}

// DumpFields renders every leaf field of v that is not zero as
// "path=value", one a line, sorted by path (see WalkFields).  The dump does
// not depend on how the fields are laid out in structs, and a field that
// reads zero is left out, as the type already says what it would be.
func DumpFields(v any) string {
	var lines []string
	WalkFields(v, func(path string, leaf reflect.Value) {
		if !leaf.IsZero() {
			lines = append(lines, fmt.Sprintf("%s=%v", path, leaf))
		}
	})
	slices.Sort(lines)
	return strings.Join(lines, "\n")
}
