"""Checks each operation's exit code and JSON report against the expected
answer, outside the timed span.

The JSON report is validated against the schema daefix ships for it.  The
validator below is a strict subset of JSON Schema draft 7: it knows exactly
the keywords the shipped schemas use and refuses any other, so a schema
change cannot make it pass silently.
"""

import json
import os
import re

OK = "ok"
UNVERIFIED = "unverified"
WRONG = "wrong"

SCHEMA_FILES = {"analyze": "analysis.schema.json",
                "fix": "conversion.schema.json"}


class SchemaError(ValueError):
    pass


def load_schemas(root):
    out = {}
    for command, fname in SCHEMA_FILES.items():
        with open(os.path.join(root, "src", "daefix", "schemas", fname)) as fh:
            out[command] = json.load(fh)
    return out


def _is_type(v, t):
    if t == "null":
        return v is None
    if t == "boolean":
        return isinstance(v, bool)
    if t == "integer":
        return isinstance(v, int) and not isinstance(v, bool)
    if t == "number":
        return isinstance(v, (int, float)) and not isinstance(v, bool)
    if t == "string":
        return isinstance(v, str)
    if t == "array":
        return isinstance(v, list)
    if t == "object":
        return isinstance(v, dict)
    raise SchemaError("unknown type %r" % t)


def _same(a, b):
    # JSON equality: true is not 1
    return type(a) is type(b) and a == b


def validate(doc, schema, root=None, path="$"):
    """Raises SchemaError with the failing path when doc breaks schema."""
    root = schema if root is None else root
    for key, want in schema.items():
        if key in ("$schema", "title", "definitions"):
            continue
        if key == "$ref":
            if not want.startswith("#/"):
                raise SchemaError("unsupported $ref %r" % want)
            target = root
            for part in want[2:].split("/"):
                target = target[part]
            validate(doc, target, root, path)
        elif key == "type":
            types = want if isinstance(want, list) else [want]
            if not any(_is_type(doc, t) for t in types):
                raise SchemaError("%s: expected %s" % (path, want))
        elif key == "const":
            if not _same(doc, want):
                raise SchemaError("%s: expected %r" % (path, want))
        elif key == "enum":
            if not any(_same(doc, w) for w in want):
                raise SchemaError("%s: %r not in %r" % (path, doc, want))
        elif key == "oneOf":
            hits = 0
            for sub in want:
                try:
                    validate(doc, sub, root, path)
                    hits += 1
                except SchemaError:
                    pass
            if hits != 1:
                raise SchemaError("%s: matches %d of oneOf" % (path, hits))
        elif key in ("required", "properties", "additionalProperties"):
            if isinstance(doc, dict):
                _object(doc, key, want, schema, root, path)
        elif key in ("items", "additionalItems", "minItems", "maxItems"):
            if isinstance(doc, list):
                _array(doc, key, want, schema, root, path)
        elif key == "minimum":
            if _is_type(doc, "number") and doc < want:
                raise SchemaError("%s: %r below %r" % (path, doc, want))
        elif key == "pattern":
            if isinstance(doc, str) and not re.search(want, doc):
                raise SchemaError("%s: %r does not match %s"
                                  % (path, doc, want))
        else:
            raise SchemaError("unsupported keyword %r" % key)


def _object(doc, key, want, schema, root, path):
    if key == "required":
        for name in want:
            if name not in doc:
                raise SchemaError("%s: missing %r" % (path, name))
    elif key == "properties":
        for name, sub in want.items():
            if name in doc:
                validate(doc[name], sub, root, "%s.%s" % (path, name))
    else:
        known = schema.get("properties", {})
        for name in doc:
            if name in known:
                continue
            if want is False:
                raise SchemaError("%s: unexpected %r" % (path, name))
            if isinstance(want, dict):
                validate(doc[name], want, root, "%s.%s" % (path, name))


def _array(doc, key, want, schema, root, path):
    if key == "items":
        if isinstance(want, list):
            for k, (v, sub) in enumerate(zip(doc, want)):
                validate(v, sub, root, "%s[%d]" % (path, k))
        else:
            for k, v in enumerate(doc):
                validate(v, want, root, "%s[%d]" % (path, k))
    elif key == "additionalItems":
        items = schema.get("items")
        if isinstance(items, list) and want is False and len(doc) > len(items):
            raise SchemaError("%s: more than %d items" % (path, len(items)))
    elif key == "minItems" and len(doc) < want:
        raise SchemaError("%s: fewer than %d items" % (path, want))
    elif key == "maxItems" and len(doc) > want:
        raise SchemaError("%s: more than %d items" % (path, want))


def check(op, exit_code, doc, schemas):
    """Verdict of one finished operation: (OK | UNVERIFIED | WRONG, detail).

    Exit 4 marks a verdict that rested on a probabilistic zero test.  Where
    the expected answer is "nonsingular" or "fixed" it counts as correct
    but unverified; an analysis may then also say ProbablySingular.
    """
    if exit_code not in op.exits:
        return WRONG, "exit %s" % exit_code
    if doc is None:
        return WRONG, "no JSON report"
    try:
        validate(doc, schemas[op.command])
    except SchemaError as ex:
        return WRONG, "schema: %s" % ex
    for name, want in op.fields.items():
        got = doc.get(name)
        if name == "classification" and exit_code == 4 \
                and got == "ProbablySingular":
            continue
        if got != want:
            return WRONG, "%s: got %r, expected %r" % (name, got, want)
    return (UNVERIFIED if exit_code == 4 else OK), ""
