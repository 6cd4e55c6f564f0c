"""Suite-wide checks.

Every scene, label, report and certificate document the suite writes goes
through ``scenes.dumps_doc``; each must come out as the standard library's
indented encoder writes it (``_oracles.stdlib_dumps_doc``), byte for byte.
"""

import pytest

from girthgeom import scenes

from _oracles import stdlib_dumps_doc


@pytest.fixture(autouse=True, scope="session")
def _written_documents_match_the_stdlib_encoder():
    write = scenes.dumps_doc

    def checked(doc):
        text = write(doc)
        assert text == stdlib_dumps_doc(doc)
        return text

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenes, "dumps_doc", checked)
        yield
