package noftl

import "noftl/internal/flash"

// DeviceOf returns the flash device under db, for the tests of package
// noftl_test.
func DeviceOf(db *DB) *flash.Device { return db.dev }
