"""Reference implementations the tests compare the product against."""
