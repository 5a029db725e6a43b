package tpcc

import (
	"strconv"

	"noftl"
)

// Index key constructors.  All keys are order-preserving composite keys so
// range and prefix scans work (see btree.KeyBuilder); each appends to dst.

func warehouseKey(dst []byte, w int) []byte               { return key(dst, w) }
func districtKey(dst []byte, w, d int) []byte             { return key(dst, w, d) }
func customerKey(dst []byte, w, d, c int) []byte          { return key(dst, w, d, c) }
func itemKey(dst []byte, i int) []byte                    { return key(dst, i) }
func stockKey(dst []byte, w, i int) []byte                { return key(dst, w, i) }
func newOrderKey(dst []byte, w, d, o int) []byte          { return key(dst, w, d, o) }
func orderKey(dst []byte, w, d, o int) []byte             { return key(dst, w, d, o) }
func orderLineKey(dst []byte, w, d, o, number int) []byte { return key(dst, w, d, o, number) }

// orderCustKey indexes orders by customer so OrderStatus can find the most
// recent order of a customer with a prefix scan.
func orderCustKey(dst []byte, w, d, c, o int) []byte { return key(dst, w, d, c, o) }

// customerNameKey indexes customers by (w, d, last name, id); the id suffix
// makes the key unique within the non-unique name index.
func customerNameKey(dst []byte, w, d int, last string, c int) []byte {
	return key(customerNamePrefix(dst, w, d, last), c)
}

// Scan prefixes: the customers with a last name (a KeyBuilder string, the
// name and a 0 terminator), the undelivered orders of a district, the orders
// of a customer and the lines of one order.
func customerNamePrefix(dst []byte, w, d int, last string) []byte {
	return append(append(key(dst, w, d), last...), 0)
}
func newOrderPrefix(dst []byte, w, d int) []byte     { return key(dst, w, d) }
func orderCustPrefix(dst []byte, w, d, c int) []byte { return key(dst, w, d, c) }
func orderLinePrefix(dst []byte, w, d, o int) []byte { return key(dst, w, d, o) }

// key appends the composite key of uint32 components.
func key(dst []byte, parts ...int) []byte {
	for _, p := range parts {
		dst = noftl.AppendKey(dst, uint32(p))
	}
	return dst
}

// Lock names, tag:id:id... in decimal: the bytes fmt's "%d" prints (the lock
// table keys its map by the name), built in dst.

func warehouseLockKey(dst []byte, w int) string      { return lockName(dst, "W", w) }
func districtLockKey(dst []byte, w, d int) string    { return lockName(dst, "D", w, d) }
func customerLockKey(dst []byte, w, d, c int) string { return lockName(dst, "C", w, d, c) }
func stockLockKey(dst []byte, w, i int) string       { return lockName(dst, "S", w, i) }
func deliveryLockKey(dst []byte, w, d int) string    { return lockName(dst, "DLV", w, d) }

func lockName(dst []byte, tag string, ids ...int) string {
	dst = append(dst, tag...)
	for _, id := range ids {
		dst = strconv.AppendInt(append(dst, ':'), int64(id), 10)
	}
	return string(dst)
}
