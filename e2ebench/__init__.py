"""End-to-end audit benchmark (see README.md)."""
