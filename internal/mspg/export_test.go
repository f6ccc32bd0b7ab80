package mspg

// CheckValidateAgainstRef exports checkAgainstRef to the external test
// package, which can import the generators.
var CheckValidateAgainstRef = checkAgainstRef
