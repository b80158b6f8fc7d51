package tcp

// Scribble hands the external test package (which, unlike this one, can
// import the policies built on top of tcp) the shell tests' overwriter.
var Scribble = scribble
