CREATE TABLE t (a, b);
SELECT nope FROM t;
